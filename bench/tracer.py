"""Span tracing of the repsoc layers, installed from outside the package.

``Tracer.install`` replaces each layer's public functions with timing
wrappers at every module attribute that binds them (``repsoc.majority_vote``,
``repsoc.mechanisms.majority_vote_from_counts``,
``repsoc.experiments.majority_vote_from_counts``, ...), wraps the mechanism
callables that ``make_mechanism`` hands to a ``Scenario``, times every resume
of ``CandidateSpace.enumerate_profiles``, and counts ``Profile``
constructions and scoring-rule evaluations.  Nothing under ``src/`` changes.

Spans carry a name, start, end and parent id and stay in memory until
``metrics`` runs.  A span's self time is its busy time minus the time its
child spans cover; the program is single-threaded, so children never
overlap.  ``orders`` is counted, not spanned: its functions run millions of
times per pass, and a span around each would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "orders", "population", "spaces", "mechanisms", "privilege",
    "complexity", "axioms", "experiments", "cli",
)
_SPANNED = tuple(layer for layer in LAYERS if layer != "orders")

# span record fields
_NAME, _START, _END, _PARENT, _BUSY, _CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # indices of open spans
        self.counts: Counter = Counter()
        self._tallies: set = set()
        self._spaces: dict = {}  # id -> space, kept alive so ids stay unique
        self._mechanisms = 0

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = perf_counter()
        duration = span[_END] - span[_START]
        span[_BUSY] += duration
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += duration

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, on_call=None):
        """Span whose busy time is the sum of the generator's resumes.

        Between resumes the consumer runs, so the span is off the stack then;
        each resume is charged to the span and to the consumer's open span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            gen = fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, perf_counter(), 0.0, parent, 0.0, 0.0]
            tracer.spans.append(span)
            index = len(tracer.spans) - 1
            yielded = 0
            try:
                while True:
                    start = perf_counter()
                    tracer._stack.append(index)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._stack.pop()
                        end = perf_counter()
                        span[_BUSY] += end - start
                        span[_END] = end
                        if parent >= 0:
                            tracer.spans[parent][_CHILD] += end - start
                    yielded += 1
                    yield item
            finally:
                tracer.counts[name + ".items"] += yielded
                gen.close()

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"repsoc.{layer}") for layer in LAYERS}
        hooks = {
            "privilege.is_privileged": dict(on_result=self._on_privileged),
            "axioms.estimate_axiom": dict(on_call=self._on_trials),
            "axioms.cycle_violation_demo": dict(on_call=self._on_trials),
            "experiments.generalization_experiment": dict(on_call=self._on_match_cells),
        }
        replacements = {}  # id(original) -> wrapper
        for layer in _SPANNED:
            module = modules[layer]
            for attr in getattr(module, "__all__", vars(module)):
                obj = getattr(module, attr)
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr == "make_mechanism":
                    wrapper = self._wrap(name, self._traced_make_mechanism(obj))
                else:
                    wrapper = self._wrap(name, obj, **hooks.get(name, {}))
                replacements[id(obj)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repsoc" and not mod_name.startswith("repsoc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

        space_cls = modules["spaces"].CandidateSpace
        space_cls.enumerate_profiles = self._wrap_generator(
            "spaces.enumerate_profiles", space_cls.enumerate_profiles, on_call=self._on_enumerate
        )
        profile_cls = modules["orders"].Profile
        profile_init = profile_cls.__init__
        counts = self.counts

        def counted_init(self_, assignment):
            counts["orders.profiles_built"] += 1
            profile_init(self_, assignment)

        profile_cls.__init__ = counted_init
        for rule in modules["mechanisms"].SCORING_RULES.values():
            object.__setattr__(rule, "evaluate", self._counted("orders.rule_evals", rule.evaluate))

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _traced_make_mechanism(self, make_mechanism):
        def make(name, space=None, plan=None):
            inner = make_mechanism(name, space=space, plan=plan)
            kind = "scoring" if name.startswith("scoring:") else name
            return self._mechanism_callable(f"mechanisms.{kind}", inner)

        return make

    def _mechanism_callable(self, span_name, inner):
        tallies = self._tallies
        counts = self.counts
        self._mechanisms += 1
        mech_id = self._mechanisms

        def on_call(args, kwargs):
            tally, total = args
            counts["mechanisms.calls"] += 1
            counts[span_name + ".calls"] += 1
            tallies.add(
                (mech_id, total, frozenset(
                    (issue, order.ranking, c) for issue, d in tally.items() for order, c in d.items()
                ))
            )

        return self._wrap(span_name, inner, on_call=on_call)

    # -- counters fed by the wrappers -------------------------------------------

    def _on_enumerate(self, args, kwargs):
        space = args[0]
        self._spaces[id(space)] = space
        self.counts["spaces.enumerate_profiles.calls"] += 1

    def _on_privileged(self, result):
        self.counts["privilege.is_privileged.calls"] += 1
        self.counts["privilege.is_privileged.true"] += bool(result)

    def _on_trials(self, args, kwargs):
        _, sizes, trials = args[:3]
        self.counts["axioms.trials"] += len(sizes) * int(trials)

    def _on_match_cells(self, args, kwargs):
        space, saliency, population = args[:3]
        cells = sum(
            1
            for issue in saliency.issues
            if saliency(issue) > 0
            for p in population.distribution(issue).values()
            if p > 0
        )
        self.counts["experiments.match_cells"] += space.size() * cells

    # -- results ----------------------------------------------------------------

    def _totals(self):
        """Per span name: (summed self time, summed busy time)."""
        out: dict = defaultdict(float)
        inclusive: dict = defaultdict(float)
        for span in self.spans:
            out[span[_NAME]] += span[_BUSY] - span[_CHILD]
            inclusive[span[_NAME]] += span[_BUSY]
        return out, inclusive

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (name -> number)."""
        self_s, inclusive = self._totals()
        c = self.counts

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def per_call_us(kind):
            calls = c[f"mechanisms.{kind}.calls"]
            return inclusive[f"mechanisms.{kind}"] / calls * 1e6 if calls else 0.0

        trials = c["axioms.trials"]
        axiom_self = self_s["axioms.estimate_axiom"] + self_s["axioms.cycle_violation_demo"]
        calls = c["mechanisms.calls"]
        enumerations = c["spaces.enumerate_profiles.calls"]
        checks = c["privilege.is_privileged.calls"]
        return {
            "axioms.trials": trials,
            "axioms.estimate_axiom.self_s": self_s["axioms.estimate_axiom"],
            "axioms.us_per_trial_overhead": axiom_self / trials * 1e6 if trials else 0.0,
            "axioms.cycle_violation_demo.self_s": self_s["axioms.cycle_violation_demo"],
            "mechanisms.calls": calls,
            "mechanisms.self_s": layer_self("mechanisms"),
            "mechanisms.majority.us_per_call": per_call_us("majority"),
            "mechanisms.scoring.us_per_call": per_call_us("scoring"),
            "mechanisms.acyclic.us_per_call": per_call_us("acyclic"),
            "mechanisms.distinct_tally_frac": len(self._tallies) / calls if calls else 0.0,
            "spaces.load_candidate_space.self_s": self_s["spaces.load_candidate_space"],
            "spaces.enumerate_profiles.self_s": self_s["spaces.enumerate_profiles"],
            "spaces.enumerate_profiles.calls": enumerations,
            "spaces.profiles_enumerated": c["spaces.enumerate_profiles.items"],
            "spaces.enumerations_per_space": (
                enumerations / len(self._spaces) if self._spaces else 0.0
            ),
            "population.load_population.self_s": self_s["population.load_population"],
            "population.sample_pairs.self_s": self_s["population.sample_pairs"],
            "experiments.run_experiment.self_s": self_s["experiments.run_experiment"],
            "experiments.generalization_experiment.self_s": (
                self_s["experiments.generalization_experiment"]
            ),
            "experiments.match_cells": c["experiments.match_cells"],
            "complexity.empirical_rademacher.self_s": self_s["complexity.empirical_rademacher"],
            "complexity.vc_dimension_with_witness.self_s": (
                self_s["complexity.vc_dimension_with_witness"]
            ),
            "privilege.is_privileged.calls": checks,
            "privilege.is_privileged.self_s": self_s["privilege.is_privileged"],
            "privilege.privileged_frac": (
                c["privilege.is_privileged.true"] / checks if checks else 0.0
            ),
            "privilege.build_privilege_graph.self_s": self_s["privilege.build_privilege_graph"],
            "privilege.scc_condensation.self_s": self_s["privilege.scc_condensation"],
            "privilege.synthesize_acyclic.self_s": self_s["privilege.synthesize_acyclic"],
            "orders.profiles_built": c["orders.profiles_built"],
            "orders.rule_evals": c["orders.rule_evals"],
            "cli.main.self_s": self_s["cli.main"],
        }
