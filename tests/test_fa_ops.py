"""Classical automaton operations over symbolic alphabets."""

import pytest

from repro.fa.automaton import FA
from repro.fa.ops import (
    accepted_strings_upto,
    determinize,
    dfa_from_fa,
    intersect,
    is_empty,
    language_equal,
    language_subset,
    minimize,
    Subsets,
    shortest_difference,
    subset_counterexample,
    symbol_complement,
    union,
)
from repro.lang.traces import parse_trace
from repro.robustness.errors import BudgetExceeded


def make(edges, initial, accepting):
    return FA.from_edges(edges, initial=initial, accepting=accepting)


@pytest.fixture
def ab_star():
    """(a b)* — alternating pairs."""
    return make([("p", "a", "q"), ("q", "b", "p")], ["p"], ["p"])


@pytest.fixture
def a_star():
    return make([("s", "a", "s")], ["s"], ["s"])


class TestDeterminize:
    def test_removes_nondeterminism(self):
        fa = make(
            [("s", "a", "x"), ("s", "a", "y"), ("x", "b", "f"), ("y", "c", "f")],
            ["s"],
            ["f"],
        )
        det = determinize(fa)
        moves = {}
        for t in det.transitions:
            key = (t.src, str(t.pattern))
            assert key not in moves, "determinize left duplicate moves"
            moves[key] = t.dst

    def test_language_preserved(self):
        fa = make(
            [("s", "a", "x"), ("s", "a", "y"), ("x", "b", "f"), ("y", "c", "f")],
            ["s"],
            ["f"],
        )
        det = determinize(fa)
        for text, expected in (("a; b", True), ("a; c", True), ("a", False)):
            trace = parse_trace(text)
            assert det.accepts(trace) == expected == fa.accepts(trace)


class TestMinimize:
    def test_merges_equivalent_states(self):
        # Two parallel branches accepting the same suffix language.
        fa = make(
            [("s", "a", "x"), ("s", "b", "y"), ("x", "c", "f"), ("y", "c", "g")],
            ["s"],
            ["f", "g"],
        )
        mini = minimize(fa)
        assert mini.num_states <= 3
        assert language_equal(mini, fa)

    def test_minimal_is_idempotent(self, ab_star):
        once = minimize(ab_star)
        twice = minimize(once)
        assert once.num_states == twice.num_states

    def test_accepting_preserved(self, a_star):
        mini = minimize(a_star)
        assert mini.accepts(parse_trace(""))
        assert mini.accepts(parse_trace("a; a; a"))


class TestProducts:
    def test_intersection(self, ab_star, a_star):
        both = intersect(ab_star, a_star)
        # Only the empty string is in both languages.
        assert both.accepts(parse_trace(""))
        assert not both.accepts(parse_trace("a"))
        assert not both.accepts(parse_trace("a; b"))

    def test_union(self, ab_star, a_star):
        either = union(ab_star, a_star)
        assert either.accepts(parse_trace("a; a"))
        assert either.accepts(parse_trace("a; b"))
        assert not either.accepts(parse_trace("b"))

    def test_union_when_one_side_dies(self, a_star):
        b_star = make([("s", "b", "s")], ["s"], ["s"])
        either = union(a_star, b_star)
        assert either.accepts(parse_trace("b; b"))
        assert either.accepts(parse_trace("a"))
        assert not either.accepts(parse_trace("a; b"))


class TestComplement:
    def test_flips_membership(self, a_star):
        comp = symbol_complement(a_star, {"a", "b"})
        assert not comp.accepts(parse_trace("a; a"))
        assert comp.accepts(parse_trace("a; b"))

    def test_alphabet_must_cover(self, ab_star):
        with pytest.raises(ValueError):
            symbol_complement(ab_star, {"a"})

    def test_double_complement(self, ab_star):
        alphabet = {"a", "b"}
        twice = symbol_complement(symbol_complement(ab_star, alphabet), alphabet)
        assert language_equal(twice, ab_star)


class TestLanguageComparisons:
    def test_is_empty(self):
        assert is_empty(make([("s", "a", "dead")], ["s"], []))
        assert not is_empty(make([("s", "a", "f")], ["s"], ["f"]))

    def test_subset(self, ab_star):
        ab_once = make([("p", "a", "q"), ("q", "b", "f")], ["p"], ["f"])
        assert language_subset(ab_once, ab_star)
        assert not language_subset(ab_star, ab_once)

    def test_equal_under_renaming(self):
        fa1 = make([("s", "a", "f")], ["s"], ["f"])
        fa2 = make([("zero", "a", "one")], ["zero"], ["one"])
        assert language_equal(fa1, fa2)

    def test_not_equal(self, ab_star, a_star):
        assert not language_equal(ab_star, a_star)


class TestEnumeration:
    def test_accepted_strings(self, ab_star):
        strings = accepted_strings_upto(ab_star, 4)
        assert strings == [(), ("a", "b"), ("a", "b", "a", "b")]

    def test_enumeration_matches_acceptance(self, stdio_fixed):
        for string in accepted_strings_upto(stdio_fixed, 3):
            trace = parse_trace("; ".join(s.replace("X", "o1") for s in string))
            assert stdio_fixed.accepts(trace)


class TestEdgeCases:
    """Degenerate inputs: no accepting states, empty alphabets."""

    def test_no_accepting_states_is_empty(self):
        fa = make([("s", "a", "t"), ("t", "b", "s")], ["s"], [])
        assert is_empty(fa)

    def test_no_accepting_states_is_subset_of_anything(self, a_star):
        nothing = make([("s", "a", "t")], ["s"], [])
        assert language_subset(nothing, a_star)
        assert not language_subset(a_star, nothing)

    def test_no_accepting_states_subset_of_itself(self):
        nothing = make([("s", "a", "t")], ["s"], [])
        assert language_subset(nothing, nothing)
        assert language_equal(nothing, nothing)

    def test_empty_alphabet_complement_of_epsilon(self):
        # Accepts only ε; over the empty alphabet ε is the ONLY string,
        # so the complement is the empty language.
        eps_only = make([], ["s"], ["s"])
        comp = symbol_complement(eps_only, frozenset())
        assert is_empty(comp)

    def test_empty_alphabet_complement_of_nothing(self):
        nothing = make([], ["s"], [])
        comp = symbol_complement(nothing, frozenset())
        assert comp.accepts(parse_trace(""))

    def test_empty_alphabet_rejected_when_fa_has_symbols(self, a_star):
        with pytest.raises(ValueError):
            symbol_complement(a_star, frozenset())

    def test_transitionless_fa_language_comparisons(self):
        eps_only = make([], ["s"], ["s"])
        nothing = make([], ["s"], [])
        assert not is_empty(eps_only)
        assert is_empty(nothing)
        assert language_subset(nothing, eps_only)
        assert not language_equal(eps_only, nothing)


class TestDfaConversion:
    def test_reachable_prunes(self):
        fa = make([("s", "a", "f"), ("orphan", "b", "f")], ["s"], ["f"])
        dfa = dfa_from_fa(fa).reachable()
        assert dfa.num_states == 2

    def test_dfa_accepts_strings(self, ab_star):
        dfa = dfa_from_fa(ab_star)
        assert dfa.accepts(("a", "b"))
        assert not dfa.accepts(("b",))


class TestWitnesses:
    """The ``witness=True`` modes added for the semantic diff layer."""

    def test_subset_counterexample_is_shortest(self, ab_star):
        ab_once = make([("p", "a", "q"), ("q", "b", "f")], ["p"], ["f"])
        assert subset_counterexample(ab_once, ab_star) is None
        cx = subset_counterexample(ab_star, ab_once)
        # ε is in (ab)* but not in {ab}: the shortest disagreement.
        assert cx == ()

    def test_language_subset_witness_mode(self, ab_star, a_star):
        holds, cx = language_subset(ab_star, a_star, witness=True)
        assert not holds
        assert dfa_from_fa(ab_star).accepts(cx)
        assert not dfa_from_fa(a_star).accepts(cx)
        holds, cx = language_subset(a_star, a_star, witness=True)
        assert holds and cx is None

    def test_language_equal_witness_picks_shorter_side(self):
        # L(left) = {a}, L(right) = {ε}: both directions disagree, and
        # the ε witness (right-only) is shorter than the a witness.
        left = make([("s", "a", "f")], ["s"], ["f"])
        right = make([], ["s"], ["s"])
        equal, cx = language_equal(left, right, witness=True)
        assert not equal
        assert cx == ()

    def test_epsilon_witness_when_initial_acceptance_differs(self):
        accepts_eps = make([("s", "a", "s")], ["s"], ["s"])
        rejects_eps = make([("s", "a", "f")], ["s"], ["f"])
        _, cx = language_subset(accepts_eps, rejects_eps, witness=True)
        assert cx == ()

    def test_witness_deterministic_across_runs(self, ab_star, a_star):
        first = language_equal(ab_star, a_star, witness=True)
        second = language_equal(ab_star, a_star, witness=True)
        assert first == second

    def test_shortest_difference_none_on_empty_language(self):
        empty = make([("s", "a", "dead")], ["s"], [])
        nothing = make([], ["s"], [])
        assert shortest_difference(Subsets(empty), Subsets(nothing)) is None


class TestSubsets:
    """The lazy subset construction behind the inclusion kernel."""

    @pytest.fixture
    def fork(self):
        """a (b | c), forking on a."""
        return make(
            [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "f"),
             ("s2", "c", "f")],
            ["s0"], ["f"],
        )

    def test_explore_matches_dfa(self, fork):
        subsets = Subsets(fork)
        assert len(subsets.explore()) == dfa_from_fa(fork).num_states

    def test_sole_moves(self, fork):
        subsets = Subsets(fork)
        subsets.explore()
        # {s1, s2} has one b-move and one c-move; {s0} has two a-moves.
        assert subsets.sole == {2, 3}

    def test_without_leaves_the_original_alone(self, fork):
        subsets = Subsets(fork)
        pruned = subsets.without(2)
        assert shortest_difference(subsets, pruned) == ("a", "b")
        assert shortest_difference(pruned, subsets) is None
        fresh = Subsets(fork)
        assert shortest_difference(subsets, fresh) is None
        assert shortest_difference(fresh, subsets) is None

    def test_ties_go_to_the_smallest_symbol(self):
        left = make([("s", "b", "f"), ("s", "a", "f")], ["s"], ["f"])
        nothing = make([], ["s"], [])
        assert shortest_difference(Subsets(left), Subsets(nothing)) == ("a",)


class TestEnumerationCap:
    def test_cap_raises_with_checkpoint(self, a_star):
        # a* has 5 strings of length ≤ 4; a cap of 3 must trip after
        # collecting exactly 3.
        with pytest.raises(BudgetExceeded) as info:
            accepted_strings_upto(a_star, 4, max_results=3)
        assert len(info.value.checkpoint) == 3
        assert info.value.context["limit"] == 3

    def test_cap_not_hit_returns_all(self, a_star):
        strings = accepted_strings_upto(a_star, 2, max_results=10)
        assert strings == [(), ("a",), ("a", "a")]
