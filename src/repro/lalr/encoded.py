"""Integer-encoded view of a grammar, for fast table generation.

Symbols are mapped to small integers (terminals and nonterminals in one
namespace); productions become integer tuples.  An augmented start
production ``__start_X -> X`` is added for every declared start symbol,
so parses (and pattern parses) can begin at any node-type nonterminal.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.grammar import Grammar, GrammarError, Nonterminal, Production

EOF = 0

EOF_NAME = "$eof"


class EncodedGrammar:
    """A grammar lowered to integers, with FIRST/nullable precomputed.

    ``first``/``nullable`` are the sets a table snapshot stored for
    this grammar (see :meth:`repro.lalr.tables.ParseTables.snapshot`);
    given, they replace the fixpoint.  The encoding is deterministic,
    so sets stored under the same grammar fingerprint (and generator)
    number their symbols the same way."""

    def __init__(self, grammar: Grammar,
                 first: Optional[Sequence[AbstractSet[int]]] = None,
                 nullable: Optional[AbstractSet[int]] = None):
        self.grammar = grammar
        self.symbol_names: List[str] = [EOF_NAME]
        self.symbol_ids: Dict[str, int] = {EOF_NAME: EOF}
        self.is_terminal: List[bool] = [True]
        self.symbols: List[object] = [None]

        if not grammar.start_symbols:
            raise GrammarError("grammar has no start symbols")

        def intern(symbol) -> int:
            sym_id = self.symbol_ids.get(symbol.name)
            if sym_id is None:
                sym_id = len(self.symbol_names)
                self.symbol_ids[symbol.name] = sym_id
                self.symbol_names.append(symbol.name)
                self.is_terminal.append(symbol.is_terminal)
                self.symbols.append(symbol)
            return sym_id

        # Real productions.
        self.productions: List[Tuple[int, Tuple[int, ...]]] = []
        self.production_objects: List[Optional[Production]] = []
        for production in grammar.productions:
            lhs = intern(production.lhs)
            rhs = tuple(intern(symbol) for symbol in production.rhs)
            self.productions.append((lhs, rhs))
            self.production_objects.append(production)

        # Augmented starts.  Each start symbol gets its *own* EOF
        # terminal: with many entry points, a shared EOF would merge the
        # follow contexts of unrelated starts and manufacture spurious
        # reduce/reduce conflicts (e.g. FieldAccess vs MethodName).
        self.start_production: Dict[int, int] = {}  # start symbol id -> prod index
        self.start_eof: Dict[int, int] = {}  # start symbol id -> eof terminal id
        for start in grammar.start_symbols:
            start_id = intern(start)
            fake_lhs_name = f"__start_{start.name}"
            fake_id = len(self.symbol_names)
            self.symbol_ids[fake_lhs_name] = fake_id
            self.symbol_names.append(fake_lhs_name)
            self.is_terminal.append(False)
            self.symbols.append(None)
            eof_name = f"$eof:{start.name}"
            eof_id = len(self.symbol_names)
            self.symbol_ids[eof_name] = eof_id
            self.symbol_names.append(eof_name)
            self.is_terminal.append(True)
            self.symbols.append(None)
            self.start_eof[start_id] = eof_id
            prod_index = len(self.productions)
            self.start_production[start_id] = prod_index
            self.productions.append((fake_id, (start_id,)))
            self.production_objects.append(None)

        self.count = len(self.symbol_names)
        self.by_lhs: Dict[int, List[int]] = {}
        for index, (lhs, _) in enumerate(self.productions):
            self.by_lhs.setdefault(lhs, []).append(index)

        if first is None or nullable is None:
            self._compute_first()
        else:
            self.first = first
            self.nullable = nullable

    # -- FIRST/nullable ---------------------------------------------------

    def _compute_first(self) -> None:
        nullable: Set[int] = set()
        first: List[Set[int]] = [set() for _ in range(self.count)]
        for sym_id in range(self.count):
            if self.is_terminal[sym_id]:
                first[sym_id].add(sym_id)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.productions:
                # nullable
                if lhs not in nullable and all(s in nullable for s in rhs):
                    nullable.add(lhs)
                    changed = True
                # first
                acc = first[lhs]
                before = len(acc)
                for symbol in rhs:
                    acc.update(first[symbol])
                    if symbol not in nullable:
                        break
                if len(acc) != before:
                    changed = True
        self.nullable = nullable
        self.first = [frozenset(s) for s in first]

    def name(self, sym_id: int) -> str:
        return self.symbol_names[sym_id]
