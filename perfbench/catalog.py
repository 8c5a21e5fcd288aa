"""``catalog``: the paper's evaluation as its users run it.

Every Table 1 specification goes through the whole debugging pipeline:
Strauss front end → reference FA → ``cluster_traces`` → Table 3
strategies (128 random trials, 8 shuffles, Optimal declined above 40
classes) → back-end re-mine of the good scenarios → ``diff_fas`` against
the ground truth → ``label_flow`` over the oracle's labeling acts.

Set-up synthesizes the program traces for the seed and builds each
spec's ground-truth FA (a lazily memoized property), so a pass repeats
exactly the same work.
"""

from __future__ import annotations

import dataclasses

from common import Samples, clustering_layers, median, own_peak_rss_mb, percentile
from repro.analysis.semantic import diff_fas, label_flow, oracle_concept_labels
from repro.core.trace_clustering import cluster_traces
from repro.mining.strauss import Strauss
from repro.parallel.relation import clear_relation_caches
from repro.strategies.runner import evaluate_strategies
from repro.workloads.specs_catalog import SPEC_CATALOG
from repro.workloads.tracegen import generate_program_traces

#: Table 3 settings (``benchmarks/bench_table3_labeling_cost.py``).
TABLE3 = dict(
    random_trials=128,
    shuffle_trials=8,
    optimal_max_states=50_000,
    optimal_max_objects=40,
)

#: The public call behind each pipeline step, in pass order.
STEPS = (
    "mining.front_end",
    "workloads.reference_fa",
    "core.cluster",
    "strategies.evaluate",
    "mining.back_end",
    "analysis.semantic.diff",
    "analysis.semantic.labelflow",
)

#: ``(span name, per-layer metric)`` for the strategy spans.
STRATEGY_SPANS = (
    ("strategy.top_down", "strategies.top_down_s"),
    ("strategy.bottom_up", "strategies.bottom_up_s"),
    ("strategy.random", "strategies.random_s"),
    ("strategy.optimal", "strategies.optimal_s"),
    ("strategy.expert", "strategies.expert_s"),
)


class Catalog:
    name = "catalog"

    def __init__(self, seed: int, tmp) -> None:
        self.seed = seed
        self.inputs: list[tuple] = []
        self.first_tables: list | None = None
        self.slowest_diff: tuple[str, float] = ("", 0.0)
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        self.inputs = []  # free the previous set-up's inputs first
        inputs = []
        for spec in SPEC_CATALOG:
            # A fresh copy, so the memoized ground truth is rebuilt here.
            spec = dataclasses.replace(spec)
            programs = generate_program_traces(spec, seed=self.seed)
            spec.ground_truth  # noqa: B018 - build the cached FA now
            inputs.append((spec, programs))
        self.inputs = inputs

    def body(self, samples: Samples) -> list[dict]:
        clear_relation_caches()
        return [self._one_spec(spec, programs, samples) for spec, programs in self.inputs]

    def _one_spec(self, spec, programs, samples: Samples) -> dict:
        with samples.timed("session", spec=spec.name):
            miner = Strauss(seeds=spec.seeds, hops=0, k=spec.mine_k, s=spec.mine_s)
            scenarios = samples.call("mining.front_end", miner.front_end, programs)
            reference = samples.call("workloads.reference_fa", spec.reference_fa, scenarios)
            clustering = samples.call("core.cluster", cluster_traces, scenarios, reference)
            labels = {
                o: spec.oracle_label(t) for o, t in enumerate(clustering.representatives)
            }
            table = samples.call(
                "strategies.evaluate",
                evaluate_strategies,
                clustering,
                labels,
                name=spec.name,
                **TABLE3,
            )
            good = [t for t in scenarios if spec.oracle_label(t) == "good"]
            mined = samples.call("mining.back_end", miner.back_end, good)
            diff = samples.call(
                "analysis.semantic.diff",
                diff_fas,
                mined.fa,
                spec.ground_truth,
                "debugged",
                "ground-truth",
            )
            with samples.timed("analysis.semantic.labelflow"):
                acts = oracle_concept_labels(clustering.lattice, labels)
                flow = label_flow(clustering.lattice, acts)
        diff_seconds = samples.times["analysis.semantic.diff"][-1]
        if diff_seconds > self.slowest_diff[1]:
            self.slowest_diff = (spec.name, diff_seconds)
        return {
            "spec": spec.name,
            "table": table,
            "relation": diff.relation,
            "conflicts": len(flow.conflicts),
        }

    # ------------------------------------------------------------------ #
    # correctness
    # ------------------------------------------------------------------ #

    def check_pass(self, rows: list[dict]) -> tuple[int, list[str]]:
        """One check per spec pipeline, plus the aggregate claims."""
        failures = []
        for row in rows:
            if row["relation"] != "equal":
                failures.append(f"{row['spec']}: re-mined spec is {row['relation']}, not equal")
            if row["conflicts"]:
                failures.append(f"{row['spec']}: {row['conflicts']} label-flow conflicts")
        tables = [row["table"] for row in rows]
        expert = sum(t.expert for t in tables)
        baseline = sum(t.baseline for t in tables)
        if not expert * 3 < baseline:
            failures.append(f"aggregate Expert {expert} is not below Baseline {baseline}/3")
        if self.seed == 0:
            xtfree = next(t for t in tables if t.name == "XtFree")
            if not (24 <= xtfree.expert <= 34 and 200 <= xtfree.baseline <= 260):
                failures.append(
                    f"XtFree Expert {xtfree.expert} / Baseline {xtfree.baseline} "
                    "outside the paper's bands"
                )
        # Every pass does the same work, so the Table 3 rows repeat exactly.
        if self.first_tables is None:
            self.first_tables = tables
            self.peak_rss_mb = own_peak_rss_mb()
        elif tables != self.first_tables:
            failures.append("Table 3 costs differ from the first pass")
        return len(rows) + 1, failures

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def end_to_end(self, passes) -> dict[str, tuple[float, int]]:
        calls = [d for p in passes for step in STEPS for d in p.samples.times[step]]
        sessions = [d for p in passes for d in p.samples.times["session"]]
        remines = [d for p in passes for d in p.samples.times["mining.back_end"]]
        # Time to the first lattice: scenarios, reference FA, clustering.
        clusters = [sum(p.samples.total(s) for s in STEPS[:3]) for p in passes]
        rates = [sum(len(p.samples.times[s]) for s in STEPS) / p.wall for p in passes]
        return {
            "first_lattice_s": (median(clusters), len(clusters)),
            "update_p50_s": (median(remines), len(remines)),
            "session_p50_s": (median(sessions), len(sessions)),
            "request_p50_ms": (1e3 * percentile(calls, 0.5), len(calls)),
            "request_p90_ms": (1e3 * percentile(calls, 0.9), len(calls)),
            "requests_per_s": (median(rates), len(rates)),
        }

    def per_layer(self, passes) -> tuple[dict[str, tuple[float, int]], dict]:
        out: dict[str, tuple[float, int]] = {}
        n = len(passes)

        def outside(metric: str, step: str) -> None:
            out[metric] = (median(p.samples.total(step) for p in passes), n)

        def spans(metric: str, span: str) -> None:
            out[metric] = (median(p.recording.wall(span) for p in passes), n)

        def counter(metric: str, name: str) -> None:
            out[metric] = (median(p.recording.count(name) for p in passes), n)

        outside("mining.front_end_s", "mining.front_end")
        outside("workloads.reference_fa_s", "workloads.reference_fa")
        outside("mining.back_end_s", "mining.back_end")
        counter("learners.sk_strings.merges", "learner.merges")
        outside("strategies.evaluate_s", "strategies.evaluate")
        for span, metric in STRATEGY_SPANS:
            spans(metric, span)
        counter("strategies.inspections", "strategy.inspections")
        counter("strategies.labelings", "strategy.labelings")
        outside("analysis.semantic.diff_s", "analysis.semantic.diff")
        out["analysis.semantic.diff_max_s"] = (
            median(max(p.samples.times["analysis.semantic.diff"]) for p in passes),
            n,
        )
        outside("analysis.semantic.labelflow_s", "analysis.semantic.labelflow")
        clustering_layers(out, passes)
        return out, {"slowest_diff_spec": self.slowest_diff[0]}

    def teardown(self) -> None:
        pass

