"""A tour of privileged orderings, privilege graphs, and acyclic synthesis.

Walks through four small candidate spaces: a singleton, a constrained
two-block product with one free issue, a space whose pairwise privileges are
*not* transitively closed, and a graph fed back through the 2^l acyclic
construction.  Run:

    python demos/privilege_tour.py
"""

import numpy as np

from repsoc import (
    KENDALL,
    LinearOrder,
    PartialOrder,
    Profile,
    build_privilege_graph,
    decide_tallies,
    is_privileged,
    scc_condensation,
    synthesize_acyclic,
)
from repsoc.privilege import PrivilegeGraph, to_dot
from repsoc.spaces import CandidateSpace, IssueSpace, all_linear_orders

lo = LinearOrder.from_string


def show(title, space, issue):
    g = build_privilege_graph(space, issue)
    cond = scc_condensation(g)
    print(f"\n== {title}")
    print(f"   members on {issue}: {[str(p(issue)) for p in space.profiles] if space.variant == 'explicit' else 'all 6 orders'}")
    print(f"   privileged pairs : {sorted(g.edges)}")
    print(f"   SCCs             : {cond.scc_members}, cyclically privileged: {cond.cyclic}")
    return g


def main():
    issue_space = IssueSpace(("i",), 3)

    single = CandidateSpace.explicit([Profile({"i": lo("0>1>2")})], issue_space)
    show("singleton space: exactly the agreeing pairs are privileged", single, "i")

    factor_ab = [
        Profile({"A": lo("0>1>2"), "B": lo("0>1>2")}),
        Profile({"A": lo("1>0>2"), "B": lo("2>1>0")}),
    ]
    factor_c = [Profile({"C": o}) for o in all_linear_orders(3)]
    product = CandidateSpace.product(
        ((("A", "B"), factor_ab), (("C",), factor_c)), IssueSpace(("A", "B", "C"), 3)
    )
    show("free factor in a product: the unconstrained issue is fully privileged",
         product, "C")

    # pairwise privilege is not transitive in general: re-sorting one pair at
    # a time can move the middle outcome, so (2,1) and (1,0) privileged does
    # not make (2,0) privileged.
    twisted = CandidateSpace.explicit(
        [Profile({"i": lo(t)}) for t in ("1>0>2", "2>0>1", "2>1>0")], issue_space
    )
    g = show("a non-transitive privilege graph", twisted, "i")
    print(f"   is_privileged(2>0) = {is_privileged(twisted, 'i', PartialOrder((2, 0), 3))}"
          f"  despite edges {sorted(g.edges)}")

    plan = synthesize_acyclic(
        {"i": PrivilegeGraph(issue="i", n=3, edges=frozenset({(0, 1), (0, 2), (1, 2), (2, 1)}))}
    )
    print("\n== acyclic synthesis from edges {(0,1),(0,2),(1,2),(2,1)}")
    print(f"   factor orderings : {[str(o) for o in plan.issue_plans['i'].factor]}")
    # the plan's mechanism is Kendall scoring over its synthesized space: a tally row counts
    # the sampled (issue, ordering) cells, and the choice is a member index per block
    cells = [("i", lo("0>2>1")), ("i", lo("0>1>2"))]
    winner = decide_tallies(np.array([[3, 1]]), cells, plan.space, KENDALL).winners[0, 0]
    (_, members), = plan.space.blocks
    print(f"   mechanism on a 3-1 sample for the pair block: {members[winner]('i')}")
    print("\nDOT for the synthesized space's graph:")
    print(to_dot(build_privilege_graph(plan.space, "i")))


if __name__ == "__main__":
    main()
