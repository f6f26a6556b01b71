import itertools
import time
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsoc import (
    CandidateSpace,
    CyclicityError,
    InvalidArgumentError,
    IssueSpace,
    LinearOrder,
    PartialOrder,
    Permutation,
    Profile,
    all_linear_orders,
    apply_local_permutation,
    apply_permutation,
    build_privilege_graph,
    check_path_privilege,
    is_cyclically_privileged,
    is_privileged,
    scc_condensation,
    save_candidate_space,
    synthesize_acyclic,
)
from repsoc import privilege
from repsoc.privilege import PrivilegeGraph, to_dot
from tests.conftest import (
    all_partial_sequences,
    candidate_spaces,
    random_explicit_space,
    random_subset_space,
)


def lo(text):
    return LinearOrder.from_string(text)


def brute_force_is_privileged(space, issue, o):
    """Reference verdict straight from the definition, by exhaustive search.

    Extensions of ``o`` range over all completions on ``issue``; on the
    remaining issues only projections of the space's members need checking,
    since any other assignment makes both memberships in the defining
    implication false.
    """
    n = space.issue_space.n
    if space.variant == "full":
        return True
    if space.variant == "product":
        block_issues, factor = next(block for block in space.blocks if issue in block[0])
        sub_space = CandidateSpace.explicit(factor, IssueSpace(block_issues, n))
        return brute_force_is_privileged(sub_space, issue, o)

    members = set(space.profiles)
    other_issues = [j for j in space.issue_space.issue_ids if j != issue]
    if other_issues:
        projections = {
            Profile({j: profile(j) for j in other_issues}) for profile in members
        }
    else:
        projections = {None}
    completions = [
        order for order in all_linear_orders(n)
        if all(order.prefers(a, b) for a, b in itertools.combinations(o.subset, 2))
    ]
    subset = sorted(o.subset)
    perms = []
    for images in itertools.permutations(subset):
        if tuple(images) != tuple(subset):
            mapping = list(range(n))
            for a, b in zip(subset, images):
                mapping[a] = b
            perms.append(Permutation(tuple(mapping)))
    for projection in projections:
        for completion in completions:
            if projection is None:
                extension = Profile({issue: completion})
            else:
                assignment = dict(projection.items())
                assignment[issue] = completion
                extension = Profile(assignment)
            if extension in members:
                continue
            for sigma in perms:
                if apply_local_permutation(extension, issue, sigma) in members:
                    return False
    return True


def differential_spaces(rng, repeats):
    """Random spaces for the differential tests, N = 3 and 4: per repeat a
    one-issue and a two-issue explicit space and a product space with a
    two-issue block; per N one explicit space with integer issue ids that
    is closed under every swap on issue 0, so each pair check scans it all."""
    spaces = []
    for n in (3, 4):
        orders = all_linear_orders(n)
        for _ in range(repeats):
            spaces.append(random_subset_space(rng, n, max_size=min(12, len(orders))))
            spaces.append(random_explicit_space(rng, ("i", "j"), n, int(rng.integers(1, 13))))
            pair_block = random_explicit_space(rng, ("i", "j"), n, int(rng.integers(1, 7)))
            free_block = random_subset_space(rng, n, issue="k", max_size=6)
            spaces.append(
                CandidateSpace.product(
                    (
                        (("i", "j"), pair_block.profiles),
                        (("k",), free_block.profiles),
                    ),
                    IssueSpace(("i", "j", "k"), n),
                )
            )
        picked = rng.choice(len(orders), size=3, replace=False)
        spaces.append(
            CandidateSpace.explicit(
                [Profile({0: a, 1: orders[k]}) for a in orders for k in picked],
                IssueSpace((0, 1), n),
            )
        )
    return spaces


def graph(edges, n=3, issue="i"):
    return PrivilegeGraph(issue=issue, n=n, edges=frozenset(edges))


class TestIsPrivileged:
    def test_full_space_everything_privileged(self):
        space = CandidateSpace.full(IssueSpace(("i", "j"), 3))
        for seq in all_partial_sequences(3):
            assert is_privileged(space, "i", PartialOrder(seq, 3))

    def test_singleton_space(self):
        space = CandidateSpace.explicit(
            [Profile({"i": lo("0>1>2")})], IssueSpace(("i",), 3)
        )
        assert is_privileged(space, "i", PartialOrder((0, 1), 3))
        assert is_privileged(space, "i", PartialOrder((1, 2), 3))
        assert is_privileged(space, "i", PartialOrder((0, 2), 3))
        assert not is_privileged(space, "i", PartialOrder((1, 0), 3))

    def test_errors(self):
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        with pytest.raises(InvalidArgumentError):
            is_privileged(space, "missing", PartialOrder((0, 1), 3))
        with pytest.raises(InvalidArgumentError):
            is_privileged(space, "i", PartialOrder((0,), 3))
        with pytest.raises(InvalidArgumentError):
            is_privileged(space, "i", PartialOrder((0, 1), 4))

    def test_large_outcome_counts(self):
        for n in (6, 7):
            space = CandidateSpace.explicit(
                [Profile({"i": LinearOrder(tuple(range(n)))})], IssueSpace(("i",), n)
            )
            assert is_privileged(space, "i", PartialOrder((0, 1), n))
            assert not is_privileged(space, "i", PartialOrder((1, 0), n))
            g = build_privilege_graph(space, "i")
            assert g.edges == frozenset(itertools.combinations(range(n), 2))

    def test_agrees_with_brute_force(self):
        """Seeded differential check of the closure test against the
        exhaustive reference on explicit and product spaces."""
        rng = np.random.default_rng(20261018)
        checks = 0
        for space in differential_spaces(rng, 14):
            n = space.issue_space.n
            sequences = all_partial_sequences(n)
            for issue in space.issue_space.issue_ids:
                for k in rng.choice(len(sequences), size=min(len(sequences), 16), replace=False):
                    o = PartialOrder(sequences[k], n)
                    expected = brute_force_is_privileged(space, issue, o)
                    assert is_privileged(space, issue, o) == expected, (space, issue, o)
                    checks += 1
        assert checks >= 2000


def test_oracle_builds_no_orders_or_profiles(monkeypatch, count_new_orders):
    """The oracle works on the space's code matrix and twin rankings as tuples: on a
    prebuilt space it constructs no LinearOrder and no Profile, however many members
    each check scans; acyclic synthesis builds its factors' orderings and no Profile."""
    orders = all_linear_orders(3)
    space = CandidateSpace.explicit(
        [Profile({"i": a, "j": b}) for a in orders for b in orders[:2]],
        IssueSpace(("i", "j"), 3),
    )
    profiles = []
    profile_init = Profile.__init__

    def counting_profile_init(self, assignment):
        profiles.append(self)
        profile_init(self, assignment)

    monkeypatch.setattr(Profile, "__init__", counting_profile_init)
    plan = synthesize_acyclic(
        {"i": graph({(0, 1), (1, 0), (0, 2), (1, 2)}), "j": graph({(0, 2), (2, 1), (0, 1)}, issue="j")}
    )
    assert profiles == []  # each factor is encoded straight from its orderings
    built = count_new_orders()
    for issue in ("i", "j"):
        build_privilege_graph(space, issue)
        build_privilege_graph(plan.space, issue)
        for seq in all_partial_sequences(3):
            is_privileged(space, issue, PartialOrder(seq, 3))
    assert len(build_privilege_graph(space, "i").edges) == 6
    assert built == [] and profiles == []
    made = Profile({"i": LinearOrder((1, 0, 2))})
    assert built == [made("i")] and profiles == [made]


@st.composite
def synthesized_plans(draw):
    """Plans of ``synthesize_acyclic``: per issue, outcomes laid out in blocks of one or two."""
    n = draw(st.integers(2, 5))
    graphs = {}
    for issue in ("s0", "s1")[: draw(st.integers(1, 2))]:
        outcomes, blocks = draw(st.permutations(range(n))), []
        while outcomes:
            size = min(len(outcomes), draw(st.integers(1, 2)))
            blocks.append(outcomes[:size])
            outcomes = outcomes[size:]
        edges = {
            (u, v)
            for k, block in enumerate(blocks)
            for later in (block, *blocks[k + 1 :])
            for u in block
            for v in later
            if u != v
        }
        graphs[issue] = PrivilegeGraph(issue=issue, n=n, edges=frozenset(edges))
    return synthesize_acyclic(graphs)


def synthesized_spaces():
    """The spaces of :func:`synthesized_plans`."""
    return synthesized_plans().map(lambda plan: plan.space)


@settings(max_examples=200, deadline=None)
@given(st.one_of(candidate_spaces(), synthesized_spaces()))
def test_closure_matches_the_member_table_reference(closure_reference, space):
    """Every partial order and every pair, on explicit, product, full and synthesized spaces."""
    n = space.issue_space.n
    for issue in space.issue_space.issue_ids:
        for subset in all_partial_sequences(n):
            expected = closure_reference(space, issue, subset)
            assert is_privileged(space, issue, PartialOrder(subset, n)) == expected, (issue, subset)
        pairs = {pair for pair in itertools.permutations(range(n), 2)
                 if closure_reference(space, issue, pair)}
        assert build_privilege_graph(space, issue).edges == pairs


def test_closure_is_exact_where_row_keys_overflow_int64(closure_reference):
    """Over 66 binary issues, a member key in mixed radix 2 needs 66 bits.  The member
    with 1>0 on i00 and i65 differs from a member only by i00, whose digit is worth 2**65:
    a key wrapped to 64 bits would find that twin, and call 1>0 on i65 privileged."""
    issues = tuple(f"i{k:02d}" for k in range(66))
    up, down = lo("0>1"), lo("1>0")
    members = [
        Profile({issue: down if issue == "i00" else up for issue in issues}),
        Profile({issue: down if issue == "i65" else up for issue in issues}),
        Profile({issue: down for issue in issues}),
    ]
    space = CandidateSpace.explicit(members, IssueSpace(issues, 2))
    assert prod(len(column) for _, columns, _ in space._codes() for column in columns) > 2**63
    assert not is_privileged(space, "i65", PartialOrder((1, 0), 2))
    for issue in issues:
        expected = {pair for pair in ((0, 1), (1, 0)) if closure_reference(space, issue, pair)}
        assert build_privilege_graph(space, issue).edges == expected


def test_closure_searches_the_keys_of_a_sparse_block(closure_reference):
    """A four-issue N = 4 block of 138 members whose key range, the product of its column
    lengths, is over a thousand times the member count, so the twins' keys are searched
    among the sorted member keys.  Issue a's column holds all 24 orderings, so no twin is
    missing from it and each verdict on a turns on the member keys alone: one rest holds
    every ordering, and each other rest two orderings and their 0-1 swaps."""
    rng = np.random.default_rng(20261021)
    orders, swap = all_linear_orders(4), Permutation.transposition(4, 0, 1)
    rests = sorted(set(map(tuple, rng.integers(24, size=(30, 3)).tolist())))
    members = {(a, *rests[0]) for a in orders}
    for rest in rests[1:]:
        for a in (orders[k] for k in rng.integers(24, size=2)):
            members |= {(a, *rest), (apply_permutation(a, swap), *rest)}
    space = CandidateSpace.explicit(
        [Profile({"a": a, "b": orders[b], "c": orders[c], "d": orders[d]}) for a, b, c, d in members],
        IssueSpace(("a", "b", "c", "d"), 4),
    )
    ((_, columns, codes),) = space._codes()
    assert len(columns[0]) == 24
    assert prod(map(len, columns)) > 1000 * len(codes)
    verdicts = set()
    for issue in "abcd":
        for subset in all_partial_sequences(4):
            expected = closure_reference(space, issue, subset)
            assert is_privileged(space, issue, PartialOrder(subset, 4)) == expected, (issue, subset)
            verdicts.add((issue == "a", expected))
        pairs = {pair for pair in itertools.permutations(range(4), 2) if closure_reference(space, issue, pair)}
        assert build_privilege_graph(space, issue).edges == pairs
    assert {(0, 1), (1, 0)} <= build_privilege_graph(space, "a").edges
    assert {(True, True), (True, False)} <= verdicts


def test_a_graph_is_one_call_of_the_closure_test(monkeypatch, rng):
    """``build_privilege_graph`` sets the closure test up once per issue and asks it every
    ordered pair in one call, not one call per pair."""
    calls = []
    set_up = privilege._closure_test

    def counting(space, issue):
        closed = set_up(space, issue)

        def counted(subsets):
            calls.append((issue, subsets.tolist()))
            return closed(subsets)

        return counted

    monkeypatch.setattr(privilege, "_closure_test", counting)
    space = random_explicit_space(rng, ("i", "j"), 4, 30)
    for issue in ("i", "j"):
        build_privilege_graph(space, issue)
    pairs = [list(pair) for pair in itertools.permutations(range(4), 2)]
    assert calls == [("i", pairs), ("j", pairs)]


def test_pair_slices_stay_within_a_forced_cap(monkeypatch):
    """Every ordering of N = 7 on issue i, beside j's 0>1>...>6 where i ranks 0 over 1 and
    j's 1>0>2>...>6 elsewhere: 5,040 members and a column of 35,280 entries.  Under a cap of
    10,000 entries the 42 pairs come one per slice, with a peak under 1.5 MB (0.9 MB measured,
    against 7.3 MB in two slices under the default cap), and the same edges: the 20 pairs of
    outcomes 2-6, whose swaps leave the order of 0 and 1 alone."""
    orders, j = all_linear_orders(7), (lo("0>1>2>3>4>5>6"), lo("1>0>2>3>4>5>6"))
    space = CandidateSpace.explicit(
        [Profile({"i": o, "j": j[not o.prefers(0, 1)]}) for o in orders], IssueSpace(("i", "j"), 7)
    )
    expected = build_privilege_graph(space, "i").edges
    assert expected == {(u, v) for u in range(2, 7) for v in range(2, 7) if u != v}
    monkeypatch.setattr(privilege, "DEFAULT_ENUMERATION_CAP", 10_000)
    tracemalloc.start()
    try:
        got = build_privilege_graph(space, "i").edges
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(synthesized_plans())
def test_synthesized_space_is_the_product_of_its_factors(tmp_path_factory, plan):
    """Each factor, encoded straight from its orderings, gives the code blocks, dtypes and
    file bytes of ``CandidateSpace.product`` over the factor's orderings as profiles."""
    factors = [
        ((issue,), [Profile({issue: order}) for order in issue_plan.factor])
        for issue, issue_plan in plan.issue_plans.items()
    ]
    product = CandidateSpace.product(factors, plan.space.issue_space)
    assert plan.space.variant == product.variant
    assert len(plan.space.coded) == len(product.coded)
    for (issues, columns, codes), (want_issues, want_columns, want_codes) in zip(plan.space.coded, product.coded):
        assert issues == want_issues and len(columns) == len(want_columns)
        for got, want in [*zip(columns, want_columns), (codes, want_codes)]:
            assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable
    directory = tmp_path_factory.mktemp("synthesized")
    save_candidate_space(directory / "plan.json", plan.space)
    save_candidate_space(directory / "product.json", product)
    assert (directory / "plan.json").read_bytes() == (directory / "product.json").read_bytes()


class TestBuildGraph:
    def test_full_space_complete_digraph(self):
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        g = build_privilege_graph(space, "i")
        assert len(g.edges) == 6
        assert g.is_transitive()

    def test_singleton_space_agreeing_pairs(self):
        space = CandidateSpace.explicit(
            [Profile({"i": lo("0>1>2")})], IssueSpace(("i",), 3)
        )
        g = build_privilege_graph(space, "i")
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_product_independent_block_is_complete(self):
        """A fully free factor's issue keeps a complete privilege graph even
        when the other block is heavily constrained."""
        factor_ab = [
            Profile({"A": lo("0>1>2"), "B": lo("0>1>2")}),
            Profile({"A": lo("1>0>2"), "B": lo("2>1>0")}),
        ]
        factor_c = [Profile({"C": o}) for o in all_linear_orders(3)]
        space = CandidateSpace.product(
            ((("A", "B"), factor_ab), (("C",), factor_c)),
            IssueSpace(("A", "B", "C"), 3),
        )
        g = build_privilege_graph(space, "C")
        assert len(g.edges) == 6
        assert is_cyclically_privileged(g)
        # ...and every longer ordering on the free issue is privileged too
        for seq in all_partial_sequences(3):
            assert is_privileged(space, "C", PartialOrder(seq, 3))

    def test_agrees_with_brute_force(self):
        """Seeded differential check of the graph, which tests every pair with one
        closure test, against the exhaustive reference verdict per pair."""
        rng = np.random.default_rng(20261019)
        edges = 0
        for space in differential_spaces(rng, 8):
            n = space.issue_space.n
            for issue in space.issue_space.issue_ids:
                expected = {
                    (u, v)
                    for u, v in itertools.permutations(range(n), 2)
                    if brute_force_is_privileged(space, issue, PartialOrder((u, v), n))
                }
                assert build_privilege_graph(space, issue).edges == expected, (space, issue)
                edges += len(expected)
        assert edges >= 100

    def test_unknown_issue(self):
        product = CandidateSpace.product(
            (
                (("i", "j"), [Profile({"i": lo("0>1>2"), "j": lo("2>1>0")})]),
                (("k",), [Profile({"k": lo("1>0>2")})]),
            ),
            IssueSpace(("i", "j", "k"), 3),
        )
        integer_ids = CandidateSpace.explicit(
            [Profile({0: lo("0>1>2"), 1: lo("1>0>2")})], IssueSpace((0, 1), 3)
        )
        for space, unknown in (
            (CandidateSpace.full(IssueSpace(("i",), 3)), "missing"),
            (product, "missing"),
            (integer_ids, "missing"),
            (integer_ids, "0"),
        ):
            with pytest.raises(InvalidArgumentError):
                build_privilege_graph(space, unknown)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            graph({(0, 0)})
        with pytest.raises(InvalidArgumentError):
            graph({(0, 5)})


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])))))
def test_is_transitive_matches_the_pairwise_definition(digraph):
    """Every two chained edges (u, v) and (v, w) with u != w have their shortcut (u, w)."""
    n, edges = digraph
    pairwise = all((u, w) in edges for u, v in edges for vv, w in edges if v == vv and u != w)
    assert graph(edges, n).is_transitive() == pairwise


def test_is_transitive_is_quick_on_the_complete_graph():
    """The complete graph at N = 200 has 39,800 edges: E² pairs of edges would be 1.6·10⁹ steps."""
    complete = graph({(u, v) for u in range(200) for v in range(200) if u != v}, n=200)
    started = time.perf_counter()
    assert complete.is_transitive()
    assert time.perf_counter() - started < 1.0


def test_reachability_reads_the_edges_in_one_pass():
    """The successor sets are built in one pass over the edge set, not one pass per outcome
    (O(N·E), which dominated ``scc_condensation`` on dense graphs), and the closure is the
    transitive closure of the edges."""
    passes = []

    class CountingEdges(frozenset):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    rng = np.random.default_rng(11)
    for n in (1, 5, 30):
        edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.1}
        g = graph(edges, n=n)
        object.__setattr__(g, "edges", CountingEdges(g.edges))
        passes.clear()
        reach = privilege._reachable(g)
        assert len(passes) == 1
        for u in range(n):  # a depth-first search from u, as reference
            seen, stack = set(), [v for a, v in edges if a == u]
            while stack:
                if (v := stack.pop()) not in seen:
                    seen.add(v)
                    stack.extend(b for a, b in edges if a == v)
            assert reach[u] == seen


class TestCondensation:
    def test_complete_digraph_single_scc(self):
        cond = scc_condensation(graph({(a, b) for a in range(3) for b in range(3) if a != b}))
        assert cond.scc_members == ((0, 1, 2),)

    def test_total_order(self):
        cond = scc_condensation(graph({(0, 1), (1, 2), (0, 2)}))
        assert cond.scc_members == ((0,), (1,), (2,))
        assert [cond.scc_members[i] for i in cond.topo_order] == [(0,), (1,), (2,)]

    def test_pair_scc_then_singleton(self):
        cond = scc_condensation(graph({(0, 1), (1, 0), (0, 2), (1, 2)}))
        assert cond.scc_members == ((0, 1), (2,))
        assert [cond.scc_members[i] for i in cond.topo_order] == [(0, 1), (2,)]

    def test_empty_graph_all_singletons(self):
        cond = scc_condensation(graph(set()))
        assert cond.scc_members == ((0,), (1,), (2,))


class TestCyclicity:
    def test_complete_digraph_true(self):
        assert is_cyclically_privileged(
            graph({(a, b) for a in range(3) for b in range(3) if a != b})
        )

    def test_two_cycle_only_false(self):
        assert not is_cyclically_privileged(graph({(0, 1), (1, 0)}))

    def test_dag_false(self):
        assert not is_cyclically_privileged(graph({(0, 1), (1, 2), (0, 2)}))


class TestPathCondition:
    def test_direct_edge(self):
        assert check_path_privilege(graph({(0, 1)}), PartialOrder((0, 1), 3))

    def test_complete_digraph_any_order(self):
        g = graph({(a, b) for a in range(3) for b in range(3) if a != b})
        for seq in all_partial_sequences(3):
            assert check_path_privilege(g, PartialOrder(seq, 3))

    def test_no_reverse_path_in_chain(self):
        assert not check_path_privilege(
            graph({(0, 1), (1, 2), (0, 2)}), PartialOrder((2, 0), 3)
        )


class TestSynthesize:
    def test_total_order_gives_singleton_factor(self):
        plan = synthesize_acyclic({"i": graph({(0, 1), (1, 2), (0, 2)})})
        assert plan.factor_size("i") == 1
        assert plan.issue_plans["i"].factor == (lo("0>1>2"),)

    def test_pair_scc_gives_two_orderings(self):
        plan = synthesize_acyclic({"i": graph({(0, 1), (1, 0), (0, 2), (1, 2)})})
        assert set(plan.issue_plans["i"].factor) == {lo("0>1>2"), lo("1>0>2")}

    def test_two_issue_product(self):
        edges = {(0, 1), (1, 0), (0, 2), (1, 2)}
        plan = synthesize_acyclic({"i": graph(edges), "j": graph(edges, issue="j")})
        assert plan.space.size() == 4

    def test_cyclic_graph_rejected(self):
        cyclic = graph({(a, b) for a in range(3) for b in range(3) if a != b})
        with pytest.raises(CyclicityError):
            synthesize_acyclic({"i": cyclic})

    def test_non_transitive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            synthesize_acyclic({"i": graph({(0, 1), (1, 2)})})

    def test_synthesized_graph_is_supergraph(self):
        for edges in [
            {(0, 1), (1, 2), (0, 2)},
            {(0, 1), (1, 0), (0, 2), (1, 2)},
            {(1, 2), (2, 1)},
            set(),
        ]:
            g = graph(edges)
            plan = synthesize_acyclic({"i": g})
            produced = build_privilege_graph(plan.space, "i")
            assert g.edges <= produced.edges


def every_small_space():
    issue_space = IssueSpace(("i",), 3)
    orders = list(all_linear_orders(3))
    for size in range(1, 7):
        for subset in itertools.combinations(orders, size):
            yield CandidateSpace.explicit(
                [Profile({"i": o}) for o in subset], issue_space
            )


class TestStructuralLaws:
    def test_concatenation_closure_exhaustive(self):
        """Privileged o: a≻…≻b and o': b≻…≻c concatenate to a privileged
        a≻…≻c, on every nonempty single-issue space with three outcomes."""
        for space in every_small_space():
            privileged = {
                seq: is_privileged(space, "i", PartialOrder(seq, 3))
                for seq in all_partial_sequences(3)
            }
            for o, op in itertools.product(all_partial_sequences(3), repeat=2):
                if o[-1] != op[0] or set(o) & set(op) != {o[-1]}:
                    continue
                joined = o + op[1:]
                if len(joined) > 3:
                    continue
                if privileged[o] and privileged[op]:
                    assert privileged[joined], (space.profiles, o, op)

    def test_pair_privilege_is_not_transitive(self):
        """Privileged (2,1) and (1,0) do not force (2,0): re-sorting one pair
        at a time can move the middle outcome, so the endpoint pair has no
        sorting certificate of its own.  This pins the known counterexample."""
        space = CandidateSpace.explicit(
            [Profile({"i": lo(t)}) for t in ("1>0>2", "2>0>1", "2>1>0")],
            IssueSpace(("i",), 3),
        )
        assert is_privileged(space, "i", PartialOrder((2, 1), 3))
        assert is_privileged(space, "i", PartialOrder((1, 0), 3))
        assert not is_privileged(space, "i", PartialOrder((2, 0), 3))
        g = build_privilege_graph(space, "i")
        assert g.edges == frozenset({(2, 1), (1, 0)})
        assert not g.is_transitive()
        # ...and so path-reachability over-approximates pairwise privilege here
        assert check_path_privilege(g, PartialOrder((2, 0), 3))

    def test_path_condition_certifies_along_edges(self):
        """Where the path retraces actual edges, concatenation makes the
        full visited sequence privileged; spot-check the edge sequences
        themselves on every small space."""
        for space in every_small_space():
            g = build_privilege_graph(space, "i")
            for u, v in g.edges:
                assert is_privileged(space, "i", PartialOrder((u, v), 3))
            for u, v in g.edges:
                for vv, w in g.edges:
                    if vv == v and w not in (u, v):
                        assert is_privileged(space, "i", PartialOrder((u, v, w), 3))


def test_to_dot():
    text = to_dot(graph({(0, 1)}))
    assert "digraph" in text and "0 -> 1;" in text
