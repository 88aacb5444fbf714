"""A slow, independent LALR(1) table builder: the differential oracle
for ``repro.lalr.build_tables`` (tests only).

It builds the canonical LR(1) collection -- item sets of ``(production,
dot)`` items with their lookahead sets, from its own FIRST/nullable
fixpoint -- and
merges states with the same LR(0) core, which is the textbook
definition of LALR(1).  The ACTION/GOTO fill applies the generator's
documented policy independently: shifts and gotos, then the accept on a
start symbol's own EOF, then reduces in production order and terminal
order, with conflicts left to declared precedence.
"""

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.grammar import Assoc
from repro.lalr import ConflictError
from repro.lalr.encoded import EncodedGrammar
from repro.lalr.tables import ACCEPT, REDUCE, SHIFT

Core = FrozenSet[Tuple[int, int]]
LR1State = FrozenSet[Tuple[Tuple[int, int], FrozenSet[int]]]


def reference_tables(grammar, numbering: Dict[Core, int]):
    """``(state_count, action, goto)`` for ``grammar``, or ConflictError.

    ``numbering`` maps each LR(0) kernel core (a frozenset of ``(prod,
    dot)``) to the generator's state number, so that tables and conflict
    messages line up; the merged LR(1) states must have exactly those
    cores."""
    encoded = EncodedGrammar(grammar)
    productions = encoded.productions
    is_terminal = encoded.is_terminal
    nullable, first = _first_sets(encoded)

    def first_of(sequence, lookaheads) -> Set[int]:
        out: Set[int] = set()
        for symbol in sequence:
            out |= first[symbol]
            if symbol not in nullable:
                return out
        return out | lookaheads

    def closure(kernel: Dict[Tuple[int, int], Set[int]]) -> LR1State:
        # An item keeps its place with an empty lookahead set: behind a
        # nonterminal that derives no terminal string it gets none, but
        # it is still part of the LR(0) core.
        items = {key: set(las) for key, las in kernel.items()}
        work = list(items)
        while work:
            prod, dot = work.pop()
            rhs = productions[prod][1]
            if dot == len(rhs) or is_terminal[rhs[dot]]:
                continue
            lookaheads = first_of(rhs[dot + 1:], items[(prod, dot)])
            for next_prod in encoded.by_lhs.get(rhs[dot], ()):
                key = (next_prod, 0)
                existing = items.get(key)
                if existing is None:
                    items[key] = set(lookaheads)
                    work.append(key)
                elif not lookaheads <= existing:
                    existing |= lookaheads
                    work.append(key)
        return frozenset((key, frozenset(las)) for key, las in items.items())

    # Canonical LR(1) collection: each state maps its items to their
    # lookahead sets.
    lr1_states: List[LR1State] = []
    lr1_moves: List[Dict[int, int]] = []
    seen: Dict[LR1State, int] = {}

    def intern(state) -> int:
        if state not in seen:
            seen[state] = len(lr1_states)
            lr1_states.append(state)
            lr1_moves.append({})
        return seen[state]

    for start, prod in encoded.start_production.items():
        intern(closure({(prod, 0): {encoded.start_eof[start]}}))
    position = 0
    while position < len(lr1_states):
        kernels: Dict[int, Dict[Tuple[int, int], Set[int]]] = {}
        for (prod, dot), lookaheads in lr1_states[position]:
            rhs = productions[prod][1]
            if dot < len(rhs):
                kernels.setdefault(rhs[dot], {})[(prod, dot + 1)] = set(lookaheads)
        for symbol, kernel in sorted(kernels.items()):
            lr1_moves[position][symbol] = intern(closure(kernel))
        position += 1

    # Merge by LR(0) core; the merged states are the LR(0) states.
    starts = set(encoded.start_production.values())

    def kernel_core(state) -> Core:
        return frozenset((prod, dot) for (prod, dot), _ in state
                         if dot > 0 or prod in starts)

    cores = [kernel_core(state) for state in lr1_states]
    if set(cores) != set(numbering):
        raise AssertionError("LR(1) cores differ from the LR(0) states")
    count = len(numbering)
    moves: List[Dict[int, int]] = [{} for _ in range(count)]
    lookaheads: List[Dict[int, Set[int]]] = [{} for _ in range(count)]
    for lr1, state in enumerate(lr1_states):
        merged = numbering[cores[lr1]]
        for symbol, target in lr1_moves[lr1].items():
            moves[merged][symbol] = numbering[cores[target]]
        for (prod, dot), las in state:
            if dot == len(productions[prod][1]) and prod not in starts:
                lookaheads[merged].setdefault(prod, set()).update(las)

    core_of = {number: core for core, number in numbering.items()}
    action: List[Dict[int, Tuple[str, int]]] = []
    goto: List[Dict[int, int]] = []
    conflicts: List[str] = []
    for state in range(count):
        actions = {s: (SHIFT, t) for s, t in moves[state].items() if is_terminal[s]}
        goto.append({s: t for s, t in moves[state].items() if not is_terminal[s]})
        for start, prod in encoded.start_production.items():
            if (prod, 1) in core_of[state]:
                actions[encoded.start_eof[start]] = (ACCEPT, prod)
        for prod in sorted(lookaheads[state]):
            for terminal in sorted(lookaheads[state][prod]):
                _reduce(grammar, encoded, state, actions, terminal, prod, conflicts)
        action.append(actions)
    if conflicts:
        raise ConflictError(conflicts)
    return count, action, goto


def _first_sets(encoded: EncodedGrammar):
    nullable: Set[int] = set()
    first: List[Set[int]] = [
        {sym} if encoded.is_terminal[sym] else set()
        for sym in range(encoded.count)
    ]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in encoded.productions:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
            for symbol in rhs:
                if not first[symbol] <= first[lhs]:
                    first[lhs] |= first[symbol]
                    changed = True
                if symbol not in nullable:
                    break
    return nullable, first


def _reduce(grammar, encoded, state, actions, terminal, prod, conflicts):
    production = encoded.production_objects[prod]
    name = encoded.name(terminal)
    existing = actions.get(terminal)
    if existing is None:
        actions[terminal] = (REDUCE, prod)
        return
    kind, value = existing
    if kind == REDUCE:
        if value != prod:
            other = encoded.production_objects[value]
            conflicts.append(f"reduce/reduce on {name!r} in state {state}: "
                             f"[{production}] vs [{other}]")
        return
    token = grammar.precedence.lookup(name)
    rule = grammar.production_prec(production)
    if token is None or rule is None:
        conflicts.append(f"shift/reduce on {name!r} in state {state}: "
                         f"shift vs [{production}]")
    elif rule[0] > token[0] or (rule[0] == token[0] and rule[1] == Assoc.LEFT):
        actions[terminal] = (REDUCE, prod)
    elif rule[0] == token[0] and rule[1] == Assoc.NONASSOC:
        del actions[terminal]
