"""Seeded inputs and operation lists for the three benchmark workloads.

``generate`` writes one workload's population, space, graph and config
files into a directory, together with ``ops.json``: the fixed sequence of
operations a pass executes, the exit code each one must return, and the
results its ``summary.json`` must contain whatever the seed.

The seed picks labels, never sizes: which orderings carry which fixed
masses, which profiles an explicit space holds, how outcomes are relabelled
inside a fixed block shape.  The amount of work a pass does is therefore the
same for every seed, which keeps timings comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

import repsoc
from repsoc import (
    CandidateSpace,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    PrivilegeGraph,
    Profile,
    SaliencyDistribution,
)

# Axiom populations put a wide margin on the target pair, and committee sizes
# jump from 9 to 201: failures die out before the third size, so the decay
# verdict under --check is "pass" whatever the seed.
_AXIOM_SIZES = [3, 9, 201, 401]
_LEAD_MASSES = (0.66, 0.14, 0.12, 0.08)
_OTHER_MASSES = (0.40, 0.30, 0.20, 0.10)


def _orders(n):
    return repsoc.all_linear_orders(n)


def _lo(ranking):
    return LinearOrder(tuple(int(c) for c in ranking))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _fixed_shape_marginal(rng, orders, masses):
    """The fixed ``masses`` placed on randomly chosen distinct ``orders``."""
    picked = rng.permutation(len(orders))[: len(masses)]
    return {orders[j]: m for j, m in zip(picked, masses)}


def _block_graph(issue, blocks, n) -> PrivilegeGraph:
    """Privilege graph of the orders that list ``blocks`` in sequence, each
    block internally in any order: both directions inside a block, and
    every earlier block over every later one."""
    edges = set()
    for k, block in enumerate(blocks):
        edges.update((u, v) for u in block for v in block if u != v)
        for later in blocks[k + 1:]:
            edges.update((u, v) for u in block for v in later)
    return PrivilegeGraph(issue=issue, n=n, edges=frozenset(edges))


def _random_blocks(rng, shape):
    """Outcomes 0..n-1 shuffled and cut into consecutive blocks of ``shape``."""
    perm = [int(c) for c in rng.permutation(sum(shape))]
    blocks, start = [], 0
    for size in shape:
        blocks.append(tuple(perm[start:start + size]))
        start += size
    return blocks


def _block_factor(blocks):
    """All orders listing ``blocks`` in sequence, each block in any order."""
    return [
        _lo(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(itertools.permutations(b) for b in blocks))
    ]


def expected_privilege(blocks, n) -> dict:
    """``summary.json`` entry that privilege-analysis must report for an
    issue whose factor is the block-ordered set of ``_block_factor``."""
    graph = _block_graph("x", blocks, n)
    members = sorted(tuple(sorted(b)) for b in blocks)
    return {
        "edges": sorted([u, v] for u, v in graph.edges),
        "cyclically_privileged": any(len(b) >= 3 for b in blocks),
        "scc_sizes": [len(b) for b in members],
    }


class _Builder:
    """Collects the files and operations of one workload."""

    def __init__(self, directory: Path, seed: int, tag: int):
        self.dir = directory
        self.seed = seed
        self.rng = np.random.default_rng([seed, tag])
        self.ops: list = []

    def config_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def population(self, name, issues, n, per_issue, saliency) -> str:
        path = self.dir / f"{name}.json"
        repsoc.save_population(
            path,
            IssueSpace(tuple(issues), n),
            SaliencyDistribution(dict(zip(issues, saliency))),
            MarginalPopulation(per_issue),
        )
        return path.name

    def space(self, name, space) -> str:
        path = self.dir / f"{name}.json"
        repsoc.save_candidate_space(path, space)
        return path.name

    def cli(self, name, config, expect_exit=0, expect=None, committees=0, pair_checks=0):
        path = self.dir / f"{name}.config.json"
        _write_json(path, config)
        self.ops.append(
            {
                "name": name,
                "kind": "cli",
                "config": path.name,
                "expect_exit": expect_exit,
                "expect": expect or {},
                "committees": committees,
                "pair_checks": pair_checks,
            }
        )

    def finish(self, workload: str, tiny: bool) -> list:
        _write_json(
            self.dir / "ops.json",
            {"workload": workload, "seed": self.seed, "tiny": tiny, "ops": self.ops},
        )
        return self.ops


# -- axiom-decay --------------------------------------------------------------


def _synth_pair_space(b: _Builder, issues, n=4):
    """Acyclic-synthesized product space: every issue has two flip pairs."""
    graphs = {}
    for issue in issues:
        graphs[issue] = _block_graph(issue, _random_blocks(b.rng, (2, 2)), n)
    return repsoc.synthesize_acyclic(graphs)


def flip_pair(plan, issue):
    """(u, v, o1, o2): a flip pair of the plan and two factor orders that
    differ only in it, o1 ranking u over v."""
    pairs = [s for s in plan.issue_plans[issue].topo_sccs if len(s) == 2]
    u, v = plan.issue_plans[issue].orientations[frozenset(pairs[0])]
    o1 = plan.issue_plans[issue].factor[0]
    if not o1.prefers(u, v):
        u, v = v, u
    o2 = repsoc.apply_permutation(o1, repsoc.Permutation.transposition(o1.n, u, v))
    return u, v, o1, o2


def _agreeing(rng, lead, u, v, k):
    """``k`` random orders other than ``lead`` that also rank u over v."""
    others = [o for o in _orders(lead.n) if o != lead and o.prefers(u, v)]
    return [others[j] for j in rng.permutation(len(others))[:k]]


def _build_axiom_decay(b: _Builder, tiny: bool) -> None:
    mechanisms = ("majority", "scoring:exact", "scoring:kendall")
    # trials per size for each mechanism, sized from its per-call cost
    trials = {"majority": 200, "scoring:exact": 45, "scoring:kendall": 18}
    sizes = _AXIOM_SIZES
    acyclic_trials = 175
    if tiny:
        trials = {m: 12 for m in mechanisms}
        acyclic_trials = 12
    # w-pc on the full N=3 space over two issues; the lead ordering of the
    # target issue and two minor ones rank the pair the same way
    full_issues = ("x", "y")
    space_full = b.space("full3", CandidateSpace.full(IssueSpace(full_issues, 3)))
    lead = _orders(3)[int(b.rng.integers(6))]
    a, c = sorted(int(x) for x in b.rng.permutation(3)[:2])
    pair = [a, c] if lead.prefers(a, c) else [c, a]
    disagree = [o for o in _orders(3) if not o.prefers(*pair)]
    target_orders = (
        [lead] + _agreeing(b.rng, lead, *pair, 2) + [disagree[int(b.rng.integers(3))]]
    )
    per_issue = {
        "x": dict(zip(target_orders, _LEAD_MASSES)),
        "y": _fixed_shape_marginal(b.rng, _orders(3), _LEAD_MASSES),
    }
    pop_full = b.population("pop_full3", full_issues, 3, per_issue, (0.5, 0.5))
    for mech in mechanisms:
        b.cli(
            f"w-pc.{mech.replace(':', '-')}",
            {
                "kind": "axiom", "axiom": "w-pc", "mechanism": mech,
                "population": pop_full, "space": space_full, "issue": "x",
                "pair": pair, "sizes": sizes, "trials": trials[mech],
                "seed": b.config_seed(),
            },
            committees=len(sizes) * trials[mech],
        )

    # s-pc, ppe and s-piia on synthesized 1- and 2-issue product spaces
    for n_issues, axioms in ((1, ("s-pc", "s-piia")), (2, ("ppe", "s-pc", "s-piia"))):
        issues = ("q", "r")[:n_issues]
        plan = _synth_pair_space(b, issues)
        space_name = b.space(f"synth{n_issues}", plan.space)
        u, v, o1, o2 = flip_pair(plan, "q")
        saliency = (1.0,) if n_issues == 1 else (0.6, 0.4)
        rest = {
            issue: _fixed_shape_marginal(b.rng, _orders(4), _OTHER_MASSES)
            for issue in issues[1:]
        }
        for axiom in axioms:
            config = {
                "kind": "axiom", "axiom": axiom, "space": space_name,
                "issue": "q", "pair": [u, v], "sizes": sizes,
            }
            if axiom == "ppe":
                # unanimous on u over v, as PPE requires
                q_orders = [o1] + _agreeing(b.rng, o1, u, v, 3)
                factor_r = plan.issue_plans["r"].factor
                r_order = factor_r[int(b.rng.integers(len(factor_r)))]
                config["profile"] = {"q": str(o1), "r": str(r_order)}
            else:
                agree = _agreeing(b.rng, o1, u, v, 2)
                q_orders = [o1, agree[0], o2, agree[1]]
            q_marginal = dict(zip(q_orders, _LEAD_MASSES))
            config["population"] = b.population(
                f"pop_{axiom}_{n_issues}", issues, 4, {"q": q_marginal, **rest}, saliency
            )
            if axiom == "s-piia":
                w, x = sorted(set(range(4)) - {u, v})
                sigma = repsoc.Permutation.transposition(4, w, x)
                relabelled = {
                    repsoc.apply_permutation(o, sigma): m for o, m in q_marginal.items()
                }
                config["population_b"] = b.population(
                    f"pop_{axiom}_{n_issues}_b", issues, 4, {"q": relabelled, **rest}, saliency
                )
            for mech in mechanisms:
                b.cli(
                    f"{axiom}.{n_issues}issue.{mech.replace(':', '-')}",
                    {**config, "mechanism": mech, "trials": trials[mech],
                     "seed": b.config_seed()},
                    committees=len(sizes) * trials[mech] * (2 if axiom == "s-piia" else 1),
                    # s-pc and s-piia check both directions of the pair first
                    pair_checks=0 if axiom == "ppe" else 2,
                )

    # Condorcet cycle: every committee verdict breaks some majority
    single = b.space("full3_single", CandidateSpace.full(IssueSpace(("i",), 3)))
    demo_sizes, demo_trials = [5, 25, 101], (12 if tiny else 200)
    b.cli(
        "condorcet-demo",
        {"kind": "condorcet-demo", "space": single, "mechanism": "majority",
         "sizes": demo_sizes, "trials": demo_trials, "seed": b.config_seed()},
        expect={"always_violates": True},
        committees=len(demo_sizes) * demo_trials,
    )

    # criterion-8 shape: the acyclic mechanism through estimate_axiom directly
    blocks = _random_blocks(b.rng, (2, 2))
    graph_path = b.dir / "acyclic_graph.json"
    graph = _block_graph("q", blocks, 4)
    _write_json(graph_path, {"N": 4, "graphs": {"q": sorted(list(e) for e in graph.edges)}})
    acyclic_sizes = [25, 50, 800, 1600]
    b.ops.append(
        {
            "name": "acyclic.estimate_axiom",
            "kind": "acyclic-axiom",
            "graphs": graph_path.name,
            "sizes": acyclic_sizes,
            "trials": acyclic_trials,
            "seed": b.config_seed(),
            "expect_exit": 0,
            "expect": {},
            # ppe + s-pc + s-piia (two committees per trial)
            "committees": len(acyclic_sizes) * acyclic_trials * 4,
            "pair_checks": 4,
        }
    )


# -- generalization -----------------------------------------------------------


def _random_explicit(rng, issues, n, size, must=()):
    orders = _orders(n)
    chosen = {tuple(p(i).ranking for i in issues): p for p in must}
    while len(chosen) < size:
        key = tuple(orders[int(j)].ranking for j in rng.integers(len(orders), size=len(issues)))
        if key not in chosen:
            chosen[key] = Profile({i: _lo(r) for i, r in zip(issues, key)})
    return CandidateSpace.explicit(list(chosen.values()), IssueSpace(tuple(issues), n))


def _hamming_ball(rng, issues, radius):
    """Binary profiles within ``radius`` flips of a random centre (VC dim = radius)."""
    centre = rng.integers(0, 2, size=len(issues))
    profiles = []
    for bits in itertools.product((0, 1), repeat=len(issues)):
        if int((np.asarray(bits) != centre).sum()) <= radius:
            profiles.append(Profile({i: _lo((x, 1 - x)) for i, x in zip(issues, bits)}))
    return CandidateSpace.explicit(profiles, IssueSpace(tuple(issues), 2))


def _build_generalization(b: _Builder, tiny: bool) -> None:
    issues = ("g0", "g1", "g2")
    saliency = (0.5, 0.3, 0.2)
    masses = np.linspace(2.0, 1.0, 12)
    masses = tuple(float(m) for m in masses / masses.sum())
    per_issue = {i: _fixed_shape_marginal(b.rng, _orders(4), masses) for i in issues}
    pop = b.population("pop_g", issues, 4, per_issue, saliency)
    explicit_size = 300 if tiny else 2000
    explicit = b.space("explicit2000", _random_explicit(b.rng, issues, 4, explicit_size))
    full = b.space("full4x3", CandidateSpace.full(IssueSpace(issues, 4)))
    sizes = [8, 32, 128, 512]
    b.cli(
        "generalization.explicit",
        {"kind": "generalization", "population": pop, "space": explicit,
         "sizes": sizes, "trials": 20 if tiny else 200, "seed": b.config_seed(),
         "epsilon": 0.9},
        expect={"regret_violations": 0},
    )
    if not tiny:
        b.cli(
            "generalization.full",
            {"kind": "generalization", "population": pop, "space": full,
             "sizes": sizes, "trials": 40, "seed": b.config_seed(), "epsilon": 0.9},
            expect={"regret_violations": 0},
        )
    b.cli(
        "rademacher.kendall",
        {"kind": "rademacher", "population": pop, "space": explicit,
         "scoring_rule": "kendall", "sample_size": 10 if tiny else 15,
         "sign_draws": 200, "seed": b.config_seed()},
    )
    vc_issues = tuple(f"b{k}" for k in range(10))
    radius = 4
    vc_space = b.space("binary10", _hamming_ball(b.rng, vc_issues, radius))
    b.cli(
        "vc",
        {"kind": "vc", "space": vc_space, "seed": b.config_seed()},
        expect={"vc_dimension": radius, "witness_verified": True},
    )
    # Kendall one-shot: few mechanism calls over a big explicit space.  C and
    # C' differ by sorting c < c' on g0, and the population is unanimous on
    # c over c', so C always outscores C' and C' cannot win the tie-break.
    c, cp = sorted(int(x) for x in b.rng.permutation(4)[:2])
    agree = [o for o in _orders(4) if o.prefers(c, cp)]
    ppe_marginal = {agree[j]: m for j, m in zip(b.rng.permutation(len(agree)), masses)}
    pop_ppe = b.population("pop_g_ppe", issues, 4, {**per_issue, "g0": ppe_marginal}, saliency)
    base = Profile(
        {"g0": agree[int(b.rng.integers(len(agree)))],
         **{i: _orders(4)[int(b.rng.integers(24))] for i in issues[1:]}}
    )
    against = repsoc.apply_local_permutation(
        base, "g0", repsoc.Permutation.transposition(4, c, cp)
    )
    ppe_space = b.space(
        "explicit1000",
        _random_explicit(b.rng, issues, 4, 150 if tiny else 1000, must=(base, against)),
    )
    ppe_sizes, ppe_trials = [4, 8, 16], 2
    b.cli(
        "ppe.explicit.scoring-kendall",
        {"kind": "axiom", "axiom": "ppe", "mechanism": "scoring:kendall",
         "population": pop_ppe, "space": ppe_space, "issue": "g0", "pair": [c, cp],
         "profile": {i: str(base(i)) for i in issues}, "sizes": ppe_sizes,
         "trials": ppe_trials, "seed": b.config_seed()},
        expect={"verdict": "pass-saturated"},
        committees=len(ppe_sizes) * ppe_trials,
    )


# -- privilege ----------------------------------------------------------------


def _build_privilege(b: _Builder, tiny: bool) -> None:
    # explicit products of block-ordered (swap-closed) factors: privileged
    # pairs force a full scan of the space, the rest exit at a counterexample
    # (name, N, block shape per issue, issues analysed); checking an issue
    # costs about |C| / |its factor| scans, so the N=5 run skips p2
    cases = (
        ("n5", 5, ((3, 2), (1, 3, 1), (3, 1, 1)), ("p0", "p1")),  # 12 * 6 * 6 = 432 profiles
        ("n4", 4, ((4,), (3, 1), (1, 3)), ("p0", "p1", "p2")),  # 24 * 6 * 6 = 864 profiles
    )
    if tiny:
        cases = (("n4", 4, ((2, 2), (3, 1), (1, 3)), ("p0", "p1", "p2")),)  # 144 profiles
    issues = ("p0", "p1", "p2")
    for name, n, shapes, analysed in cases:
        blocks = {i: _random_blocks(b.rng, shape) for i, shape in zip(issues, shapes)}
        factors = [_block_factor(blocks[i]) for i in issues]
        profiles = [
            Profile(dict(zip(issues, combo))) for combo in itertools.product(*factors)
        ]
        space = b.space(f"blocks_{name}", CandidateSpace.explicit(profiles, IssueSpace(issues, n)))
        b.cli(
            f"privilege-analysis.{name}",
            {"kind": "privilege-analysis", "space": space, "issues": list(analysed),
             "seed": b.config_seed()},
            expect={"privilege": {i: expected_privilege(blocks[i], n) for i in analysed}},
            pair_checks=len(analysed) * n * (n - 1),
        )
    # acyclic synthesis from block graphs with at most two outcomes per block
    for name, n, shapes in (("n5", 5, ((2, 1, 2), (1, 2, 2), (2, 2, 1))),
                            ("n4", 4, ((2, 2), (1, 2, 1)))):
        graphs = {}
        factor_sizes = {}
        for k, shape in enumerate(shapes):
            issue = f"s{k}"
            graphs[issue] = sorted(list(e) for e in _block_graph(issue, _random_blocks(b.rng, shape), n).edges)
            factor_sizes[issue] = 2 ** sum(1 for s in shape if s == 2)
        path = b.dir / f"graphs_{name}.json"
        _write_json(path, {"N": n, "graphs": graphs})
        b.cli(
            f"synthesize-acyclic.{name}",
            {"kind": "synthesize-acyclic", "graphs": path.name, "seed": b.config_seed()},
            expect={"supergraph_ok": True, "factor_sizes": factor_sizes},
            pair_checks=len(shapes) * n * (n - 1),
        )


_BUILDERS = {
    "axiom-decay": _build_axiom_decay,
    "generalization": _build_generalization,
    "privilege": _build_privilege,
}


def generate(workload: str, seed: int, directory, tiny: bool = False) -> list:
    """Write the workload's inputs for ``seed`` into ``directory``; return its ops."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    b = _Builder(directory, seed, list(_BUILDERS).index(workload))
    _BUILDERS[workload](b, tiny)
    return b.finish(workload, tiny)


def load_inputs(directory) -> int:
    """Load every population and space file once; returns how many were read."""
    directory = Path(directory)
    loaded = 0
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".config.json") or path.name == "ops.json":
            continue
        doc = json.loads(path.read_text())
        if "marginals" in doc:
            repsoc.load_population(path)
        elif "variant" in doc:
            repsoc.load_candidate_space(path)
        else:
            continue
        loaded += 1
    return loaded
