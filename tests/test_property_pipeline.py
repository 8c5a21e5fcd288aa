"""Hypothesis property tests across the clustering/learning pipeline."""

from hypothesis import given, settings, strategies as st

from repro.core.trace_clustering import cluster_traces, extend_clustering
from repro.core.wellformed import is_well_formed
from repro.fa.templates import seed_order_fa, unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace, dedup_traces
from repro.learners.k_tails import learn_k_tails
from repro.learners.sk_strings import learn_sk_strings
from repro.mining.scenarios import ScenarioExtractor

SYMBOLS = ("open", "read", "write", "close")


@st.composite
def traces(draw, min_traces=1, max_traces=8):
    """Random single-object traces over a small alphabet."""
    count = draw(st.integers(min_traces, max_traces))
    out = []
    for i in range(count):
        length = draw(st.integers(1, 5))
        symbols = [draw(st.sampled_from(SYMBOLS)) for _ in range(length)]
        out.append(
            Trace(tuple(Event(s, ("X",)) for s in symbols), trace_id=f"t{i}")
        )
    return out


class TestLearnersProperty:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_sk_strings_accepts_training(self, ts):
        learned = learn_sk_strings(ts, k=2, s=1.0)
        for trace in ts:
            assert learned.fa.accepts(trace)

    @given(traces(), st.integers(1, 3), st.sampled_from([0.5, 0.75, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_sk_strings_accepts_training_any_params(self, ts, k, s):
        learned = learn_sk_strings(ts, k=k, s=s)
        for trace in ts:
            assert learned.fa.accepts(trace)

    @given(traces(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_k_tails_accepts_training(self, ts, k):
        learned = learn_k_tails(ts, k=k)
        for trace in ts:
            assert learned.fa.accepts(trace)

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_learned_fa_is_deterministic(self, ts):
        fa = learn_sk_strings(ts, k=2, s=1.0).fa
        seen = set()
        for t in fa.transitions:
            key = (t.src, str(t.pattern))
            assert key not in seen
            seen.add(key)


def _concepts(clustering) -> set[tuple[frozenset[int], frozenset[int]]]:
    lattice = clustering.lattice
    return {(lattice.extent(c), lattice.intent(c)) for c in lattice}


class TestClusteringProperty:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_clustering_covers_all_classes(self, ts):
        reference = unordered_fa([f"{s}(X)" for s in SYMBOLS])
        clustering = cluster_traces(ts, reference)
        assert clustering.num_objects == dedup_traces(ts).num_classes
        assert sum(clustering.class_counts) == len(ts)
        clustering.lattice.validate()

    @given(traces(), traces(max_traces=4))
    @settings(max_examples=40, deadline=None)
    def test_extend_equals_recluster(self, first, second):
        # The second reference omits a symbol, so it rejects some traces.
        for alphabet in (SYMBOLS, SYMBOLS[:3]):
            reference = unordered_fa([f"{s}(X)" for s in alphabet])
            incremental = extend_clustering(
                cluster_traces(first, reference), second
            )
            full = cluster_traces(first + second, reference)
            incremental.lattice.validate()
            assert [t.key() for t in incremental.representatives] == [
                t.key() for t in full.representatives
            ]
            assert incremental.class_counts == full.class_counts
            assert incremental.class_members == full.class_members
            assert {t.key() for t in incremental.rejected} == {
                t.key() for t in full.rejected
            }
            assert _concepts(incremental) == _concepts(full)

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_uniform_labelings_always_well_formed(self, ts):
        reference = seed_order_fa([f"{s}(X)" for s in SYMBOLS], "close(X)")
        clustering = cluster_traces(ts, reference)
        n = clustering.num_objects
        assert is_well_formed(clustering.lattice, {o: "good" for o in range(n)})

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_mined_reference_accepts_everything(self, ts):
        reference = learn_sk_strings(ts, k=2, s=1.0).fa
        clustering = cluster_traces(ts, reference)
        assert clustering.rejected == ()


class TestScenarioExtractionProperty:
    @st.composite
    @staticmethod
    def programs(draw):
        """Random multi-object program traces."""
        num_objects = draw(st.integers(1, 4))
        events = []
        for o in range(num_objects):
            length = draw(st.integers(1, 4))
            for _ in range(length):
                events.append(
                    Event(draw(st.sampled_from(SYMBOLS)), (f"obj{o}",))
                )
        # Shuffle deterministically via drawn permutation indices.
        order = draw(st.permutations(range(len(events))))
        return Trace(tuple(events[i] for i in order), trace_id="p")

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_one_scenario_per_seed_occurrence(self, program):
        extractor = ScenarioExtractor(seeds=frozenset(["open"]))
        scenarios = extractor.extract(program)
        occurrences = sum(1 for e in program if e.symbol == "open")
        assert len(scenarios) == occurrences

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_scenarios_are_standardized_projections(self, program):
        extractor = ScenarioExtractor(seeds=frozenset(["open"]))
        for scenario in extractor.extract(program):
            assert scenario.names() <= {"X"}
            # The scenario's symbol sequence equals the projection of the
            # program onto one object's symbols.
            candidates = {
                tuple(
                    e.symbol for e in program if name in e.args
                )
                for name in program.names()
            }
            assert scenario.symbols in candidates


class TestWellFormednessTheorem:
    """Section 4.3's characterization, as a property: the en-masse
    strategies complete a labeling exactly when the lattice is
    well-formed for it."""

    @given(traces(min_traces=2, max_traces=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_strategies_complete_iff_well_formed(self, ts, data):
        from repro.strategies.base import StuckError
        from repro.strategies.bottomup import bottom_up_strategy
        from repro.strategies.topdown import top_down_strategy

        reference_fa = unordered_fa([f"{s}(X)" for s in SYMBOLS])
        clustering = cluster_traces(ts, reference_fa)
        n = clustering.num_objects
        labeling = {
            o: data.draw(st.sampled_from(["good", "bad"]), label=f"label{o}")
            for o in range(n)
        }
        wf = is_well_formed(clustering.lattice, labeling)
        for strategy in (top_down_strategy, bottom_up_strategy):
            try:
                outcome = strategy(clustering.lattice, labeling)
                completed = outcome.completed
            except StuckError:
                completed = False
            assert completed == wf
