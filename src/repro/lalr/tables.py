"""LALR(1) lookahead computation and parse-table construction.

Lookaheads are computed with DeRemer & Pennello's relational
construction (TOPLAS 1982): the ``reads``/``includes``/``lookback``
relations over nonterminal transitions of the LR(0) automaton, closed
by two ``digraph`` passes over terminal bitsets.  Conflicts are
resolved only through declared operator precedence; anything left over
raises ConflictError — Maya's generator "rejects grammars that contain
unresolved LALR(1) conflicts" instead of applying YACC's default
resolutions.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro import faults, trace
from repro.grammar import Assoc, Grammar, GrammarFingerprint, Production
from repro.lalr import automaton as automaton_module
from repro.lalr import encoded as encoded_module
from repro.lalr.automaton import Automaton
from repro.lalr.encoded import EncodedGrammar
from repro.store import LRUCache, Store, code_token


class ConflictError(Exception):
    """The grammar has LALR(1) conflicts not resolved by precedence."""

    def __init__(self, conflicts: List[str]):
        self.conflicts = conflicts
        preview = "\n  ".join(conflicts[:12])
        extra = "" if len(conflicts) <= 12 else f"\n  ... {len(conflicts) - 12} more"
        super().__init__(f"unresolved LALR(1) conflicts:\n  {preview}{extra}")


# Action encodings.
SHIFT = "s"
REDUCE = "r"
ACCEPT = "a"


class ParseTables:
    """Generated ACTION/GOTO tables plus grammar metadata.

    ``snapshot``/``from_snapshot`` round-trip the derived tables through
    plain picklable data: the symbol/production encoding is rebuilt
    deterministically from the grammar (cheap), while the expensive
    automaton + lookahead computation is replaced by the stored ACTION/
    GOTO tables, and the FIRST/nullable fixpoint by the stored sets.
    Restoring is only sound for a grammar whose fingerprint matches the
    one the snapshot was taken under, and for the same generator code.
    """

    def __init__(self, grammar: Grammar, _snapshot: Optional[dict] = None):
        self.grammar = grammar
        if _snapshot is None:
            self.encoded = EncodedGrammar(grammar)
            # Every generation passes here, the cached and the
            # cache-bypassing path alike, so this is where it is timed.
            with trace.phase("lalr.generate"):
                self.automaton = Automaton(self.encoded)
                self.action: List[Dict[int, Tuple[str, int]]] = []
                self.goto: List[Dict[int, int]] = []
                self._build()
        else:
            self.encoded = EncodedGrammar(
                grammar, first=_snapshot["first"],
                nullable=_snapshot["nullable"])
            self.automaton = _RestoredAutomaton(
                _snapshot["start_state"], _snapshot["state_count"]
            )
            self.action = _snapshot["action"]
            self.goto = _snapshot["goto"]
        self._init_unit_chains()

    def snapshot(self) -> dict:
        """Picklable derived data for the on-disk table cache."""
        return {
            "start_state": dict(self.automaton.start_state),
            "state_count": len(self.automaton.states),
            "action": self.action,
            "goto": self.goto,
            "first": self.encoded.first,
            "nullable": self.encoded.nullable,
        }

    @classmethod
    def from_snapshot(cls, grammar: Grammar, snapshot: dict) -> "ParseTables":
        return cls(grammar, _snapshot=snapshot)

    # -- public API --------------------------------------------------------

    def symbol_id(self, name: str) -> Optional[int]:
        return self.encoded.symbol_ids.get(name)

    def start_state(self, nt_name: str) -> int:
        sym = self.encoded.symbol_ids.get(nt_name)
        if sym is None or sym not in self.automaton.start_state:
            raise KeyError(f"{nt_name} is not a declared start symbol")
        return self.automaton.start_state[sym]

    def eof_id(self, nt_name: str) -> int:
        sym = self.encoded.symbol_ids.get(nt_name)
        if sym is None or sym not in self.encoded.start_eof:
            raise KeyError(f"{nt_name} is not a declared start symbol")
        return self.encoded.start_eof[sym]

    def production(self, prod_index: int) -> Production:
        return self.encoded.production_objects[prod_index]

    def expected_terminals(self, state: int) -> List[str]:
        return sorted(
            self.encoded.name(t)
            for t in self.action[state]
            if not self.encoded.name(t).startswith("$eof")
        )

    # -- unit chains -------------------------------------------------------

    def _init_unit_chains(self) -> None:
        """Mark the unit productions a chain may pass over, and the
        productions after which a chain can start.

        A production is a unit when it is a non-internal ``passthrough``
        with exactly one right-hand-side symbol, a nonterminal.  (That
        its base action is the identity is the dispatcher's to check:
        the tables do not know the actions.)  A chain can only follow a
        reduction whose left-hand side is some unit's right-hand side
        (``chain_starts``).  The chain memo is derived data only: it is
        not part of ``snapshot``.
        """
        encoded = self.encoded
        self.is_unit = [
            production is not None and production.passthrough
            and not production.internal and len(rhs) == 1
            and not encoded.is_terminal[rhs[0]]
            for (_, rhs), production in zip(encoded.productions,
                                            encoded.production_objects)
        ]
        unit_rhs = {rhs[0] for (_, rhs), unit
                    in zip(encoded.productions, self.is_unit) if unit}
        self.chain_starts = [lhs in unit_rhs
                             for lhs, _ in encoded.productions]
        self._unit_chains: Dict[Tuple, Tuple] = {}

    def unit_chain(self, under: int, prod_index: int, terminal: Optional[int],
                   specific: Optional[int]) -> Tuple:
        """The unit reductions that follow reducing ``prod_index`` over
        state ``under`` with lookahead ``terminal`` (``specific``: the
        identifier's spelling-specific terminal, preferred when a state
        has an action on it, or None).

        Returns ``(final state, next action, productions passed over)``:
        the state the driver reaches after the whole chain, the action
        it takes there on the same lookahead, and the unit productions
        on the way (empty when there is no chain).  Every unit reduction
        pops one state and lands back on ``under``, so the chain is a
        walk over ``under``'s gotos.  Entries are deterministic and
        written once, so threads share the memo without a lock.
        """
        key = (under, prod_index, terminal, specific)
        chain = self._unit_chains.get(key)
        if chain is None:
            productions = self.encoded.productions
            objects = self.encoded.production_objects
            gotos = self.goto[under]
            state = gotos[productions[prod_index][0]]
            passed = []
            while True:
                actions = self.action[state]
                entry = actions.get(specific) or actions.get(terminal)
                if (entry is None or entry[0] != REDUCE
                        or not self.is_unit[entry[1]]):
                    break
                passed.append(objects[entry[1]])
                state = gotos[productions[entry[1]][0]]
            chain = self._unit_chains[key] = (state, entry, tuple(passed))
        return chain

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        encoded = self.encoded
        transitions = self.automaton.transitions
        accepts = {
            transitions[state][start]: start
            for start, state in self.automaton.start_state.items()
        }
        conflicts: List[str] = []
        # Equal entries share one tuple.  A grammar's thousands of
        # actions are a few hundred distinct ones, so the tables, a
        # store entry and the memo that pickles it stay small.
        shared: Dict[Tuple[str, int], Tuple[str, int]] = {}
        for state, reductions in enumerate(self._lookaheads()):
            actions: Dict[int, Tuple[str, int]] = {}
            gotos: Dict[int, int] = {}
            for symbol, target in transitions[state].items():
                if encoded.is_terminal[symbol]:
                    actions[symbol] = (SHIFT, target)
                else:
                    gotos[symbol] = target
            start = accepts.get(state)
            if start is not None:
                actions[encoded.start_eof[start]] = (
                    ACCEPT, encoded.start_production[start])
            # Fixed order (production, then terminal id) keeps the
            # tables and the conflict list deterministic.
            for prod_index in sorted(reductions):
                las = reductions[prod_index]
                while las:
                    low = las & -las
                    las ^= low
                    self._add_reduce(state, actions, low.bit_length() - 1,
                                     prod_index, conflicts)
            for symbol, entry in actions.items():
                actions[symbol] = shared.setdefault(entry, entry)
            self.action.append(actions)
            self.goto.append(gotos)

        if conflicts:
            raise ConflictError(conflicts)

    def _add_reduce(
        self,
        state: int,
        actions: Dict[int, Tuple[str, int]],
        la: int,
        prod_index: int,
        conflicts: List[str],
    ) -> None:
        existing = actions.get(la)
        if existing is None:
            actions[la] = (REDUCE, prod_index)
            return
        kind, value = existing
        la_name = self.encoded.name(la)
        production = self.encoded.production_objects[prod_index]
        if kind == REDUCE:
            if value == prod_index:
                return
            other = self.encoded.production_objects[value]
            conflicts.append(
                f"reduce/reduce on {la_name!r} in state {state}: "
                f"[{production}] vs [{other}]"
            )
            return
        if kind in (SHIFT, ACCEPT):
            resolution = self._resolve_shift_reduce(la, production)
            if resolution == "shift":
                return  # keep the shift
            if resolution == "reduce":
                actions[la] = (REDUCE, prod_index)
                return
            if resolution == "error":
                del actions[la]
                return
            conflicts.append(
                f"shift/reduce on {la_name!r} in state {state}: "
                f"shift vs [{production}]"
            )

    def _resolve_shift_reduce(self, la: int, production: Production) -> Optional[str]:
        """Resolve via precedence; None when no declarations apply."""
        term_prec = self.grammar.precedence.lookup(self.encoded.name(la))
        prod_prec = self.grammar.production_prec(production)
        if term_prec is None or prod_prec is None:
            return None
        if prod_prec[0] > term_prec[0]:
            return "reduce"
        if prod_prec[0] < term_prec[0]:
            return "shift"
        assoc = prod_prec[1]
        if assoc == Assoc.LEFT:
            return "reduce"
        if assoc == Assoc.RIGHT:
            return "shift"
        return "error"

    # -- lookaheads (DeRemer & Pennello 1982) ---------------------------------

    def _lookaheads(self) -> List[Dict[int, int]]:
        """Per state, each reduce item's lookahead set as a bitset over
        terminal ids: ``[state] -> {prod_index: bits}``.

        Read(p, A) is DR(p, A) -- the terminals shifted right after the
        nonterminal transition p --A--> -- closed under ``reads`` (past
        nullable nonterminals).  Follow(p, A) is Read closed under
        ``includes``: (p', B) when A ends a production of B, up to a
        nullable tail, entered from p'.  A reduce by B -> w in state q
        takes Follow(p, B) over its ``lookback`` set, every p from which
        w leads to q.
        """
        encoded = self.encoded
        automaton = self.automaton
        transitions = automaton.transitions
        is_terminal = encoded.is_terminal
        nullable = encoded.nullable
        productions = encoded.productions

        index: Dict[Tuple[int, int], int] = {}
        for state, moves in enumerate(transitions):
            for symbol in moves:
                if not is_terminal[symbol]:
                    index[(state, symbol)] = len(index)
        direct = [0] * len(index)
        reads: List[List[int]] = [[] for _ in index]
        for (state, symbol), x in index.items():
            after = transitions[state][symbol]
            for next_symbol in transitions[after]:
                if is_terminal[next_symbol]:
                    direct[x] |= 1 << next_symbol
                elif next_symbol in nullable:
                    reads[x].append(index[(after, next_symbol)])
        for start, state in automaton.start_state.items():
            direct[index[(state, start)]] |= 1 << encoded.start_eof[start]

        # nullable_tail[p]: the least k with productions[p].rhs[k:] nullable.
        nullable_tail = []
        for _, rhs in productions:
            k = len(rhs)
            while k and rhs[k - 1] in nullable:
                k -= 1
            nullable_tail.append(k)
        includes: List[List[int]] = [[] for _ in index]
        lookback: List[Dict[int, List[int]]] = [{} for _ in transitions]
        for (state, lhs), x in index.items():
            for prod_index in encoded.by_lhs.get(lhs, ()):
                _, rhs = productions[prod_index]
                last = nullable_tail[prod_index] - 1
                q = state
                for position, symbol in enumerate(rhs):
                    if position >= last and not is_terminal[symbol]:
                        includes[index[(q, symbol)]].append(x)
                    q = transitions[q][symbol]
                lookback[q].setdefault(prod_index, []).append(x)

        follow = _digraph(includes, _digraph(reads, direct))
        result: List[Dict[int, int]] = []
        for reductions in lookback:
            merged: Dict[int, int] = {}
            for prod_index, sources in reductions.items():
                bits = 0
                for x in sources:
                    bits |= follow[x]
                merged[prod_index] = bits
            result.append(merged)
        return result


def _digraph(relation: List[List[int]], base: List[int]) -> List[int]:
    """DeRemer & Pennello's ``digraph``: F(x) = base(x) | F(y) for every
    x R y, one pass with Tarjan-style SCC collapsing (a strongly
    connected component shares one set).  Iterative, so relation chains
    of any length stay clear of the recursion limit."""
    result = list(base)
    done = len(base) + 1
    depth = [0] * len(base)  # 0: unvisited; done: finished
    stack: List[int] = []
    path: List[Tuple[int, int, Iterator[int]]] = []

    def enter(x: int) -> None:
        stack.append(x)
        depth[x] = len(stack)
        path.append((x, len(stack), iter(relation[x])))

    for root in range(len(base)):
        if depth[root]:
            continue
        enter(root)
        while path:
            x, own, edges = path[-1]
            for y in edges:
                if not depth[y]:
                    enter(y)
                    break
                depth[x] = min(depth[x], depth[y])
                result[x] |= result[y]
            else:
                path.pop()
                if depth[x] == own:
                    while True:
                        top = stack.pop()
                        depth[top] = done
                        result[top] = result[x]
                        if top == x:
                            break
                if path:
                    parent = path[-1][0]
                    depth[parent] = min(depth[parent], depth[x])
                    result[parent] |= result[x]
    return result


class _RestoredAutomaton:
    """Stand-in for an Automaton rebuilt from a table snapshot: enough
    for the parser (start states) and for introspection (state count),
    without re-running LR(0) construction."""

    def __init__(self, start_state: Dict[int, int], state_count: int):
        self.start_state = start_state
        self.states = range(state_count)
        self.transitions: List[Dict[int, int]] = []


#: In-memory table cache.  Mid-compile grammar extension makes a new
#: fingerprint per ``use`` scope, so a long-running compiler would
#: otherwise accumulate one full table set per extension ever seen;
#: the LRU bound caps that at the working set.
TABLE_CACHE_SIZE = 32
_TABLE_CACHE = LRUCache(TABLE_CACHE_SIZE, "lalr.tables")

def default_cache_dir() -> str:
    """Where the persistent table store lives unless ``--table-cache``
    or ``--no-cache`` says otherwise: ``MAYA_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/maya``, else ``~/.cache/maya``.  A relative
    ``XDG_CACHE_HOME`` is ignored, as the XDG spec asks."""
    explicit = os.environ.get("MAYA_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not (xdg and os.path.isabs(xdg)):
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "maya")


#: Checked inside every entry, so a changed symbol numbering or table
#: builder never restores tables the old code built.
_generator_token = code_token(__name__, automaton_module.__name__,
                              encoded_module.__name__)


#: The persistent table store, on by default (see
#: :func:`default_cache_dir`).  Cold-starting mayac skips full LALR
#: generation for any grammar already seen on this machine -- the base
#: Java grammar and each ``use``-extended one.
_DISK = Store(default_cache_dir(), "lalr.tables.disk",
              faults.SITE_CACHE_LOAD)

#: Checked inside every entry, so a format bump is a plain miss whose
#: regenerated tables overwrite the old entry.  Format 2 stores the
#: FIRST/nullable sets with the tables; format 3 the generator token.
_SNAPSHOT_FORMAT = 3

#: When set (via :func:`bypass_caches`), ``tables_for`` neither reads
#: nor writes any shared cache — the daemon's degraded single-shot
#: mode, where a poisoned shared entry must not reach the re-run.
_BYPASS = threading.local()


@contextmanager
def bypass_caches():
    """Build tables from scratch, touching no shared cache (this
    thread only)."""
    previous = getattr(_BYPASS, "active", False)
    _BYPASS.active = True
    try:
        yield
    finally:
        _BYPASS.active = previous


def enable_disk_cache(path: Optional[str]) -> None:
    """Point the persistent table cache at ``path`` (None disables)."""
    _DISK.directory = path


@contextmanager
def disk_cache_at(path: Optional[str]):
    """Scope the persistent table cache to ``path``, restoring the
    previous directory on exit (tests and the daemon smoke drill)."""
    previous = _DISK.directory
    enable_disk_cache(path)
    try:
        yield
    finally:
        enable_disk_cache(previous)


def table_cache_clear() -> None:
    """Drop all in-memory cached tables (tests and benchmarks)."""
    _TABLE_CACHE.clear()


def _disk_name(fingerprint: GrammarFingerprint) -> str:
    """Named by grammar alone: regenerated tables overwrite the entry
    another format or generator wrote."""
    digest = hashlib.sha256(repr(fingerprint.key).encode()).hexdigest()
    return f"tables-{digest[:32]}.pickle"


def _disk_load(grammar: Grammar, fingerprint: GrammarFingerprint):
    def decode(data: bytes) -> Optional[ParseTables]:
        payload = pickle.loads(data)
        if (payload["format"] != _SNAPSHOT_FORMAT
                or payload["generator"] != _generator_token()
                or payload["key"] != fingerprint.key):
            return None  # stale: well-formed, just not ours to use
        return ParseTables.from_snapshot(grammar, payload["snapshot"])

    tables = _DISK.load(_disk_name(fingerprint), decode)
    if tables is not None:
        _DISK.count(hit=True)
    return tables


def _disk_store(tables: ParseTables, fingerprint: GrammarFingerprint) -> None:
    if not _DISK:
        return
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "generator": _generator_token(),
        "key": fingerprint.key,
        "snapshot": tables.snapshot(),
    }
    _DISK.store(_disk_name(fingerprint),
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def build_tables(grammar: Grammar) -> ParseTables:
    """Build tables without caching (used by generator benchmarks)."""
    return ParseTables(grammar)


def tables_for(grammar: Grammar) -> ParseTables:
    """Build or fetch cached tables for the grammar's current state.

    The fingerprint is O(1) (version-cached on the grammar) and hashes
    in O(1), so the cached-lookup path does constant work regardless of
    grammar size.  Keying by *content* rather than grammar identity
    means every CompileEnv sharing the base grammar shares one table
    set.
    """
    if getattr(_BYPASS, "active", False):
        return ParseTables(grammar)
    fingerprint = grammar.fingerprint()
    tables = _TABLE_CACHE.get(fingerprint)
    if tables is None:
        if _DISK:
            with trace.phase("lalr.restore"):
                tables = _disk_load(grammar, fingerprint)
        if tables is None:
            tables = ParseTables(grammar)
            _disk_store(tables, fingerprint)
        _TABLE_CACHE.put(fingerprint, tables)
    return tables
