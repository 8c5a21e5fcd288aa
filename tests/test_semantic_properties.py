"""Hypothesis property tests for the semantic spec-diff layer.

Random NFAs over a fixed 3-symbol alphabet are diffed, and the verdicts
checked against brute-force enumeration of both languages up to a length
bound: a brute-force difference implies the relation reflects it, the
returned witness must be a genuinely distinguishing string of minimal
length, and ``equal`` verdicts imply the bounded languages coincide.
The SEM004 sweep is checked both ways against one ``language_equal``
per live transition: what it reports is removable, and nothing
removable is missed.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis.fa_passes import live_transitions
from repro.analysis.semantic import diff_fas, semantically_dead_transitions
from repro.fa.automaton import FA, Transition
from repro.fa.ops import (
    accepted_strings_upto,
    determinize,
    dfa_from_fa,
    language_equal,
)
from repro.lang.events import parse_pattern

ALPHABET = ("a", "b", "c")
BOUND = 4


@st.composite
def nfas(draw):
    """Small random NFAs over a fixed 3-symbol alphabet."""
    num_states = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(num_states)]
    num_edges = draw(st.integers(0, 8))
    transitions = []
    for _ in range(num_edges):
        src = draw(st.sampled_from(states))
        dst = draw(st.sampled_from(states))
        sym = draw(st.sampled_from(ALPHABET))
        transitions.append(Transition(src, parse_pattern(sym), dst))
    initial = draw(st.sets(st.sampled_from(states), min_size=1))
    accepting = draw(st.sets(st.sampled_from(states)))
    return FA(states, initial, accepting, transitions)


def bounded_language(fa):
    """All accepted strings over the *shared* alphabet up to BOUND."""
    dfa = dfa_from_fa(fa)
    return {
        combo
        for length in range(BOUND + 1)
        for combo in itertools.product(ALPHABET, repeat=length)
        if dfa.accepts(combo)
    }


class TestDiffVsBruteForce:
    @given(nfas(), nfas())
    @settings(max_examples=60, deadline=None)
    def test_verdict_consistent_with_enumeration(self, left, right):
        diff = diff_fas(left, right, dead_transitions=False)
        left_lang = bounded_language(left)
        right_lang = bounded_language(right)
        left_extra = left_lang - right_lang
        right_extra = right_lang - left_lang
        if diff.relation == "equal":
            assert left_lang == right_lang
            assert diff.left_only is None and diff.right_only is None
        if diff.relation == "subset":
            assert not left_extra
        if diff.relation == "superset":
            assert not right_extra
        # A bounded difference forces the matching witness to exist.
        if left_extra:
            assert diff.left_only is not None
        if right_extra:
            assert diff.right_only is not None

    @given(nfas(), nfas())
    @settings(max_examples=60, deadline=None)
    def test_witness_distinguishes_and_is_shortest(self, left, right):
        diff = diff_fas(left, right, dead_transitions=False)
        left_dfa, right_dfa = dfa_from_fa(left), dfa_from_fa(right)
        left_lang = bounded_language(left)
        right_lang = bounded_language(right)
        if diff.left_only is not None:
            assert left_dfa.accepts(diff.left_only)
            assert not right_dfa.accepts(diff.left_only)
            extra = left_lang - right_lang
            if extra:
                assert len(diff.left_only) == min(len(s) for s in extra)
        if diff.right_only is not None:
            assert right_dfa.accepts(diff.right_only)
            assert not left_dfa.accepts(diff.right_only)
            extra = right_lang - left_lang
            if extra:
                assert len(diff.right_only) == min(len(s) for s in extra)

    @given(nfas())
    @settings(max_examples=40, deadline=None)
    def test_self_diff_is_equal(self, fa):
        diff = diff_fas(fa, fa.with_transitions(fa.transitions))
        assert diff.relation == "equal"
        assert not diff.report.has_errors


class TestDeadTransitionsVsBruteForce:
    @given(nfas())
    @settings(max_examples=40, deadline=None)
    def test_removal_preserves_language(self, fa):
        for index in semantically_dead_transitions(fa):
            pruned = fa.with_transitions(
                [t for j, t in enumerate(fa.transitions) if j != index]
            )
            assert language_equal(fa, pruned)

    @given(nfas())
    @settings(max_examples=40, deadline=None)
    def test_enumeration_agrees_on_small_languages(self, fa):
        baseline = accepted_strings_upto(fa, 3, max_results=200)
        for index in semantically_dead_transitions(fa):
            pruned = fa.with_transitions(
                [t for j, t in enumerate(fa.transitions) if j != index]
            )
            assert accepted_strings_upto(pruned, 3, max_results=200) == baseline

    @given(nfas())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_transition_equivalence(self, fa):
        # Completeness as well as soundness: a certificate that wrongly
        # marked a removable transition as necessary would fail here.
        expected = [
            index
            for index in sorted(live_transitions(fa))
            if language_equal(fa, without(fa, index))
        ]
        assert semantically_dead_transitions(fa) == expected


def without(fa, index):
    return fa.with_transitions(
        [t for j, t in enumerate(fa.transitions) if j != index]
    )


@pytest.fixture
def recorder():
    rec = obs.configure(record=True)
    try:
        yield rec
    finally:
        obs.shutdown()


def dead_counts(recorder):
    counters = recorder.registry.snapshot()["counters"]
    return {
        name: counters[f"semantic.dead.{name}"]
        for name in ("candidates", "certified", "checks")
    }


class TestDeadTransitionCertificate:
    def test_trimmed_dfa_needs_no_search(self, recorder):
        nfa = FA.from_edges(
            [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s3"),
             ("s2", "c", "s3"), ("s3", "a", "s0")],
            initial=["s0"], accepting=["s3"],
        )
        dfa = determinize(nfa)
        assert semantically_dead_transitions(dfa) == []
        assert dead_counts(recorder) == {
            "candidates": dfa.num_transitions,
            "certified": dfa.num_transitions,
            "checks": 0,
        }

    def test_parallel_paths_are_all_searched(self, recorder):
        fa = FA.from_edges(
            [("s0", "open(X)", "s1"), ("s0", "open(X)", "s1b"),
             ("s1", "close(X)", "s2"), ("s1b", "close(X)", "s2")],
            initial=["s0"], accepting=["s2"],
        )
        assert semantically_dead_transitions(fa) == [0, 1, 2, 3]
        assert dead_counts(recorder) == {
            "candidates": 4, "certified": 0, "checks": 4
        }
