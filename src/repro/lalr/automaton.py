"""LR(0) automaton construction."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.lalr.encoded import EncodedGrammar


class Automaton:
    """The LR(0) automaton: kernel item sets and transitions.

    An item is ``prod_index * stride + dot``; the stride exceeds the
    longest right-hand side, so advancing the dot (``item + 1``) never
    runs into the next production's items.  Its floor of 64 keeps the
    item values, and so the state numbering, of every grammar without
    a longer production as they have always been.
    """

    def __init__(self, grammar: EncodedGrammar):
        self.grammar = grammar
        self.stride = max(64, 1 + max(len(rhs) for _, rhs in grammar.productions))
        self.states: List[FrozenSet[int]] = []
        self.transitions: List[Dict[int, int]] = []
        self.start_state: Dict[int, int] = {}
        self._closure_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._build()

    # -- closure ---------------------------------------------------------

    def closure(self, kernel: FrozenSet[int]) -> FrozenSet[int]:
        cached = self._closure_cache.get(kernel)
        if cached is not None:
            return cached
        grammar = self.grammar
        productions = grammar.productions
        stride = self.stride
        out: Set[int] = set(kernel)
        stack = list(kernel)
        seen_nt: Set[int] = set()
        while stack:
            encoded = stack.pop()
            prod_index, dot = divmod(encoded, stride)
            _, rhs = productions[prod_index]
            if dot >= len(rhs):
                continue
            symbol = rhs[dot]
            if grammar.is_terminal[symbol] or symbol in seen_nt:
                continue
            seen_nt.add(symbol)
            for next_prod in grammar.by_lhs.get(symbol, ()):
                new_item = next_prod * stride
                if new_item not in out:
                    out.add(new_item)
                    stack.append(new_item)
        result = frozenset(out)
        self._closure_cache[kernel] = result
        return result

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        grammar = self.grammar
        productions = grammar.productions
        stride = self.stride
        index_of: Dict[FrozenSet[int], int] = {}

        def intern_state(kernel: FrozenSet[int]) -> int:
            state = index_of.get(kernel)
            if state is None:
                state = len(self.states)
                index_of[kernel] = state
                self.states.append(kernel)
                self.transitions.append({})
                worklist.append(state)
            return state

        worklist: List[int] = []
        for start_sym, prod_index in grammar.start_production.items():
            kernel = frozenset([prod_index * stride])
            self.start_state[start_sym] = intern_state(kernel)

        position = 0
        while position < len(worklist):
            state = worklist[position]
            position += 1
            full = self.closure(self.states[state])
            moves: Dict[int, Set[int]] = {}
            for encoded in full:
                prod_index, dot = divmod(encoded, stride)
                _, rhs = productions[prod_index]
                if dot < len(rhs):
                    moves.setdefault(rhs[dot], set()).add(encoded + 1)
            for symbol, kernel in moves.items():
                self.transitions[state][symbol] = intern_state(frozenset(kernel))
