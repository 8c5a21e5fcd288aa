"""Classical automaton algorithms over symbolic alphabets.

The learners, the miner and the spec-fixing workflow all manipulate
automata whose labels are drawn from a finite set of event *templates*
(e.g. ``fopen(X)``, ``fclose(X)``) used consistently — so for language
comparisons we may treat each distinct label as an opaque alphabet symbol.
This module provides the standard constructions on that view:

* :func:`determinize` (subset construction) and :func:`minimize` (Moore's
  partition refinement),
* :func:`intersect` / :func:`union` (product construction) and
  :func:`symbol_complement`,
* :func:`language_equal`, :func:`language_subset`, :func:`is_empty` —
  with an optional ``witness=True`` mode returning a shortest
  counterexample string,
* :func:`shortest_difference`, the one inclusion kernel behind them: an
  early-exit BFS over pairs of lazily built :class:`Subsets` (the
  search :mod:`repro.analysis.semantic` turns into witness traces and
  uses to decide semantically dead transitions),
* :func:`accepted_strings_upto` for exhaustive small-language tests
  (with a result-count cap for dense alphabets).

:class:`SymbolicDFA` is the internal deterministic representation; the
conversions :func:`dfa_from_fa` / :func:`dfa_to_fa` bridge to
:class:`repro.fa.automaton.FA` by (un)stringifying labels.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.fa.automaton import FA
from repro.lang.events import parse_pattern
from repro.robustness.errors import BudgetExceeded


@dataclass
class SymbolicDFA:
    """A total-or-partial DFA over string symbols.

    States are ``0..n-1``; ``delta`` maps ``(state, symbol)`` to a state.
    A missing entry is an implicit dead state (the DFA may be partial).
    """

    num_states: int
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int] = field(default_factory=dict)

    def alphabet(self) -> frozenset[str]:
        return frozenset(sym for (_, sym) in self.delta)

    def step(self, state: int | None, symbol: str) -> int | None:
        if state is None:
            return None
        return self.delta.get((state, symbol))

    def accepts(self, symbols: Sequence[str]) -> bool:
        state: int | None = self.initial
        for sym in symbols:
            state = self.step(state, sym)
            if state is None:
                return False
        return state in self.accepting

    def reachable(self) -> "SymbolicDFA":
        """Copy with unreachable states removed (renumbered)."""
        order = [self.initial]
        index = {self.initial: 0}
        queue = deque(order)
        moves = sorted(self.delta.items())
        succ: dict[int, list[tuple[str, int]]] = {}
        for (src, sym), dst in moves:
            succ.setdefault(src, []).append((sym, dst))
        while queue:
            state = queue.popleft()
            for _, dst in succ.get(state, []):
                if dst not in index:
                    index[dst] = len(order)
                    order.append(dst)
                    queue.append(dst)
        delta = {
            (index[src], sym): index[dst]
            for (src, sym), dst in self.delta.items()
            if src in index and dst in index
        }
        accepting = frozenset(index[s] for s in self.accepting if s in index)
        return SymbolicDFA(len(order), 0, accepting, delta)


class Subsets:
    """Lazy subset construction of an FA over its label strings.

    A state of the determinized automaton is a frozenset of NFA state
    indices; :meth:`moves` computes a subset's successors on first use
    and caches them, so a search that stops early never builds the rest
    of the automaton.  :meth:`without` gives the construction for the FA
    minus one transition, sharing the labels (each pattern is rendered
    once).  ``sole`` collects every transition that is the only move on
    its symbol out of some subset expanded so far.
    """

    def __init__(self, fa: FA) -> None:
        state_index = {s: i for i, s in enumerate(fa.states)}
        self._labels = [str(t.pattern) for t in fa.transitions]
        self._src = [state_index[t.src] for t in fa.transitions]
        self._dst = [state_index[t.dst] for t in fa.transitions]
        self._out: list[list[int]] = [[] for _ in fa.states]
        for index, t in enumerate(fa.transitions):
            self._out[state_index[t.src]].append(index)
        self.start = frozenset(state_index[s] for s in fa.initial)
        self._accepting = frozenset(state_index[s] for s in fa.accepting)
        self._moves: dict[frozenset[int], dict[str, frozenset[int]]] = {}
        self.sole: set[int] = set()

    def without(self, index: int) -> "Subsets":
        """The construction for this FA with transition ``index`` removed."""
        pruned = copy.copy(self)
        src = self._src[index]
        pruned._out = list(self._out)
        pruned._out[src] = [i for i in self._out[src] if i != index]
        pruned._moves = {}
        pruned.sole = set()
        return pruned

    def accepts(self, subset: frozenset[int]) -> bool:
        return not self._accepting.isdisjoint(subset)

    def moves(self, subset: frozenset[int]) -> dict[str, frozenset[int]]:
        """Successor subset per symbol, in sorted symbol order."""
        cached = self._moves.get(subset)
        if cached is not None:
            return cached
        by_symbol: dict[str, list[int]] = {}
        for state in subset:
            for index in self._out[state]:
                by_symbol.setdefault(self._labels[index], []).append(index)
        moves: dict[str, frozenset[int]] = {}
        for sym in sorted(by_symbol):
            indices = by_symbol[sym]
            if len(indices) == 1:
                self.sole.add(indices[0])
            moves[sym] = frozenset(self._dst[i] for i in indices)
        self._moves[subset] = moves
        return moves

    def explore(self) -> list[frozenset[int]]:
        """Every reachable subset, in BFS order from the start subset."""
        order = [self.start]
        seen = {self.start}
        for subset in order:
            for target in self.moves(subset).values():
                if target not in seen:
                    seen.add(target)
                    order.append(target)
        return order


def dfa_from_fa(fa: FA) -> SymbolicDFA:
    """Determinize ``fa`` treating each distinct label string as a symbol."""
    subsets = Subsets(fa)
    order = subsets.explore()
    subset_index = {subset: i for i, subset in enumerate(order)}
    delta = {
        (src, sym): subset_index[target]
        for src, subset in enumerate(order)
        for sym, target in subsets.moves(subset).items()
    }
    accepting = frozenset(
        i for i, subset in enumerate(order) if subsets.accepts(subset)
    )
    return SymbolicDFA(len(order), 0, accepting, delta)


def dfa_to_fa(dfa: SymbolicDFA) -> FA:
    """Convert back to an :class:`FA`, parsing symbols into patterns."""
    edges = [
        (f"q{src}", parse_pattern(sym), f"q{dst}")
        for (src, sym), dst in sorted(dfa.delta.items())
    ]
    states = [f"q{i}" for i in range(dfa.num_states)]
    return FA.from_edges(
        edges,
        initial=[f"q{dfa.initial}"],
        accepting=[f"q{s}" for s in sorted(dfa.accepting)],
        states=states,
    )


def determinize(fa: FA) -> FA:
    """Subset construction over label strings; returns a deterministic FA."""
    return dfa_to_fa(dfa_from_fa(fa))


def _moore_minimize(dfa: SymbolicDFA, alphabet: frozenset[str]) -> SymbolicDFA:
    """Moore partition refinement over the *completed* automaton.

    The DFA may be partial, so an explicit dead state (index ``n``) is
    added before refining; real states that turn out to be
    dead-equivalent are dropped along with their transitions.
    """
    dfa = dfa.reachable()
    n = dfa.num_states
    symbols = sorted(alphabet)
    total = n + 1  # + the explicit dead state

    def step(state: int, sym: str) -> int:
        if state == n:
            return n
        return dfa.delta.get((state, sym), n)

    block = [1 if s in dfa.accepting else 0 for s in range(total)]
    while True:
        signature: dict[tuple[int, ...], int] = {}
        new_block = [0] * total
        for s in range(total):
            key = (block[s],) + tuple(block[step(s, sym)] for sym in symbols)
            if key not in signature:
                signature[key] = len(signature)
            new_block[s] = signature[key]
        if new_block == block:
            break
        block = new_block

    dead_block = block[n]
    if block[dfa.initial] == dead_block:
        # The whole language is empty.
        return SymbolicDFA(1, 0, frozenset(), {})
    renumber: dict[int, int] = {}
    for s in range(n):
        b = block[s]
        if b != dead_block and b not in renumber:
            renumber[b] = len(renumber)
    delta: dict[tuple[int, str], int] = {}
    for (src, sym), dst in dfa.delta.items():
        if block[src] == dead_block or block[dst] == dead_block:
            continue
        delta[(renumber[block[src]], sym)] = renumber[block[dst]]
    accepting = frozenset(
        renumber[block[s]] for s in dfa.accepting
    )
    return SymbolicDFA(
        len(renumber), renumber[block[dfa.initial]], accepting, delta
    )


def minimize(fa: FA) -> FA:
    """Minimal DFA for ``fa``'s symbolic language."""
    dfa = dfa_from_fa(fa)
    return dfa_to_fa(_moore_minimize(dfa, dfa.alphabet()))


def _product(
    a: SymbolicDFA, b: SymbolicDFA, want: Callable[[bool, bool], bool],
    alphabet: frozenset[str],
) -> SymbolicDFA:
    """Product DFA over ``alphabet`` with acceptance combined by ``want``.

    Both operands are completed with a dead state (represented by ``None``)
    so that union behaves correctly when one side gets stuck.
    """
    start = (a.initial, b.initial)
    index: dict[tuple[int | None, int | None], int] = {start: 0}
    order = [start]
    queue = deque([start])
    delta: dict[tuple[int, str], int] = {}
    while queue:
        pair = queue.popleft()
        src = index[pair]
        for sym in sorted(alphabet):
            target = (a.step(pair[0], sym), b.step(pair[1], sym))
            if target == (None, None):
                continue
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            delta[(src, sym)] = index[target]
    accepting = frozenset(
        i
        for i, (sa, sb) in enumerate(order)
        if want(sa in a.accepting, sb in b.accepting)
    )
    return SymbolicDFA(len(order), 0, accepting, delta)


def intersect(fa1: FA, fa2: FA) -> FA:
    """FA accepting the intersection of the two symbolic languages."""
    a, b = dfa_from_fa(fa1), dfa_from_fa(fa2)
    alphabet = a.alphabet() | b.alphabet()
    return dfa_to_fa(_product(a, b, lambda x, y: x and y, alphabet))


def union(fa1: FA, fa2: FA) -> FA:
    """FA accepting the union of the two symbolic languages."""
    a, b = dfa_from_fa(fa1), dfa_from_fa(fa2)
    alphabet = a.alphabet() | b.alphabet()
    return dfa_to_fa(_product(a, b, lambda x, y: x or y, alphabet))


def symbol_complement(fa: FA, alphabet: Iterable[str]) -> FA:
    """FA accepting exactly the strings over ``alphabet`` that ``fa`` rejects."""
    alphabet = frozenset(alphabet)
    dfa = dfa_from_fa(fa)
    extra = dfa.alphabet() - alphabet
    if extra:
        raise ValueError(f"fa uses symbols outside the alphabet: {sorted(extra)}")
    # Complete with an explicit dead state, then flip acceptance.
    dead = dfa.num_states
    delta = dict(dfa.delta)
    for state in range(dfa.num_states + 1):
        for sym in alphabet:
            delta.setdefault((state, sym), dead)
    accepting = frozenset(
        s for s in range(dfa.num_states + 1) if s not in dfa.accepting
    )
    return dfa_to_fa(SymbolicDFA(dfa.num_states + 1, dfa.initial, accepting, delta))


def is_empty(fa: FA) -> bool:
    """True iff the FA accepts no string at all."""
    dfa = dfa_from_fa(fa).reachable()
    return not dfa.accepting


def shortest_difference(
    left: Subsets, right: Subsets
) -> tuple[str, ...] | None:
    """A shortest string accepted by ``left`` but not ``right``, or ``None``.

    BFS over pairs of subsets reached by the same string, both built on
    the fly, stopping at the first pair that accepts on the left only.
    Successors are expanded in sorted symbol order, so ties go to the
    lexicographically smallest symbol at each step — which is what
    keeps witness-based diagnostic fingerprints stable across runs.
    Only the left side's moves are followed: a string that leaves it
    cannot accept on the left.
    """
    start = (left.start, right.start)
    if left.accepts(left.start) and not right.accepts(right.start):
        return ()
    back: dict[tuple[frozenset[int], frozenset[int]], tuple] = {start: ()}
    queue = deque([start])
    empty: frozenset[int] = frozenset()
    while queue:
        pair = queue.popleft()
        right_moves = right.moves(pair[1])
        for sym, left_dst in left.moves(pair[0]).items():
            target = (left_dst, right_moves.get(sym, empty))
            if target in back:
                continue
            back[target] = (pair, sym)
            if left.accepts(target[0]) and not right.accepts(target[1]):
                symbols: list[str] = []
                node = target
                while node != start:
                    node, sym = back[node]
                    symbols.append(sym)
                return tuple(reversed(symbols))
            queue.append(target)
    return None


def subset_counterexample(fa1: FA, fa2: FA) -> tuple[str, ...] | None:
    """A shortest string in L(fa1) \\ L(fa2), or ``None`` when L(fa1) ⊆ L(fa2).

    The witness half of :func:`language_subset`: an early-exit BFS over
    the product of ``fa1`` with the complement of ``fa2``, so the
    counterexample is as short as the disagreement allows.
    """
    return shortest_difference(Subsets(fa1), Subsets(fa2))


def language_subset(
    fa1: FA, fa2: FA, *, witness: bool = False
) -> bool | tuple[bool, tuple[str, ...] | None]:
    """True iff L(fa1) ⊆ L(fa2) over the union of their symbolic alphabets.

    With ``witness=True``, returns ``(holds, counterexample)`` instead:
    ``counterexample`` is a shortest symbol string accepted by ``fa1``
    but not ``fa2`` (``None`` exactly when the inclusion holds).
    """
    cx = subset_counterexample(fa1, fa2)
    return (cx is None, cx) if witness else cx is None


def language_equal(
    fa1: FA, fa2: FA, *, witness: bool = False
) -> bool | tuple[bool, tuple[str, ...] | None]:
    """True iff the two FAs accept the same symbolic language.

    With ``witness=True``, returns ``(equal, counterexample)``:
    ``counterexample`` is a shortest string in the symmetric difference
    (accepted by exactly one of the two FAs), ``None`` when equal.
    """
    if not witness:
        return language_subset(fa1, fa2) and language_subset(fa2, fa1)
    left = subset_counterexample(fa1, fa2)
    right = subset_counterexample(fa2, fa1)
    if left is None and right is None:
        return (True, None)
    if left is None:
        return (False, right)
    if right is None:
        return (False, left)
    return (False, left if len(left) <= len(right) else right)


def accepted_strings_upto(
    fa: FA, max_length: int, max_results: int | None = None
) -> list[tuple[str, ...]]:
    """All accepted symbol strings of length ≤ ``max_length`` (sorted).

    Exhaustive over the FA's own alphabet; useful in tests where the
    expected language is small.  ``max_results`` caps the result count:
    once more than that many strings are accepted the enumeration stops
    with :class:`~repro.robustness.errors.BudgetExceeded` (carrying the
    strings found so far as its checkpoint) instead of materializing an
    exponentially dense language.
    """
    dfa = dfa_from_fa(fa)
    alphabet = sorted(dfa.alphabet())
    out: list[tuple[str, ...]] = []
    for length in range(max_length + 1):
        for combo in itertools.product(alphabet, repeat=length):
            if dfa.accepts(combo):
                if max_results is not None and len(out) >= max_results:
                    raise BudgetExceeded(
                        "accepted-string enumeration exceeded the result cap",
                        checkpoint=out,
                        dimension="max_results",
                        limit=max_results,
                        max_length=max_length,
                        alphabet_size=len(alphabet),
                    )
                out.append(combo)
    return out
