"""Productions and the extensible grammar.

A Grammar is a *mutable* set of productions: the whole point of Maya is
that importing a metaprogram may add productions at application compile
time.  Parse tables are derived data, cached by fingerprint in
repro.lalr.tables; any mutation bumps the grammar version so stale
tables are never reused.

Productions are immutable and globally unique for a given
(lhs, rhs, tag): cloning a grammar shares Production objects, so Mayans
registered on a production remain valid across compilation environments.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.grammar.symbols import (
    LazySym,
    ListSym,
    Nonterminal,
    OptSym,
    ParameterizedSym,
    Symbol,
    Terminal,
    TreeSym,
    nonterminal,
    terminal,
)


class GrammarError(Exception):
    """An error in a grammar definition or extension."""


class Assoc(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    NONASSOC = "nonassoc"


class Precedence:
    """A precedence table: terminal name -> (level, associativity)."""

    def __init__(self):
        self._levels: Dict[str, Tuple[int, Assoc]] = {}
        self._next_level = 0

    def declare(self, assoc: Assoc, *terminal_names: str) -> None:
        self._next_level += 1
        for name in terminal_names:
            self._levels[name] = (self._next_level, assoc)

    def lookup(self, terminal_name: str) -> Optional[Tuple[int, Assoc]]:
        return self._levels.get(terminal_name)

    def snapshot(self) -> Tuple:
        return tuple(sorted((k, v[0], v[1].value) for k, v in self._levels.items()))

    def copy(self) -> "Precedence":
        dup = Precedence()
        dup._levels = dict(self._levels)
        dup._next_level = self._next_level
        return dup


_production_counter = itertools.count()
_production_registry: Dict[Tuple, "Production"] = {}


class GrammarFingerprint:
    """A grammar-content digest with O(1) hashing and equality.

    The key is built from production *content* (lhs/rhs names and tags),
    not process-local production indices, so equal grammar content in
    different processes produces equal fingerprints — that is what makes
    the on-disk parse-table cache sound.  The hash is computed once, and
    instances are interned by key (see :meth:`of`), so two grammars with
    equal content share one fingerprint object and cache lookups keyed
    on fingerprints compare by identity — O(1) however large the
    grammar is.
    """

    __slots__ = ("key", "_hash", "__weakref__")

    def __init__(self, key: Tuple):
        self.key = key
        self._hash = hash(key)

    @staticmethod
    def of(key: Tuple) -> "GrammarFingerprint":
        """The canonical fingerprint for a key (interned, weakly held)."""
        fingerprint = _fingerprint_intern.get(key)
        if fingerprint is None:
            fingerprint = GrammarFingerprint(key)
            _fingerprint_intern[key] = fingerprint
        return fingerprint

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, GrammarFingerprint)
            and self._hash == other._hash
            and self.key == other.key
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        return f"GrammarFingerprint({self._hash:#x})"


#: Weak intern table: entries disappear once no grammar or cache holds
#: the fingerprint, so a long-lived process growing many grammar
#: versions does not leak digests.
_fingerprint_intern: "weakref.WeakValueDictionary[Tuple, GrammarFingerprint]" \
    = weakref.WeakValueDictionary()


class Production:
    """A grammar production (a generic function, in Maya's model).

    ``action`` is the *internal* semantic action used for helper
    productions (lists, subtree recursion); node-type productions get
    their base semantics from built-in Mayans registered with the
    dispatcher instead.
    """

    __slots__ = (
        "lhs",
        "rhs",
        "tag",
        "prec",
        "index",
        "action",
        "internal",
        "tree_contents",
        "passthrough",
    )

    def __init__(
        self,
        lhs: Nonterminal,
        rhs: Tuple[Symbol, ...],
        tag: str,
        prec: Optional[str],
        action: Optional[Callable],
        internal: bool,
    ):
        self.lhs = lhs
        self.rhs = rhs
        self.tag = tag
        self.prec = prec
        self.index = next(_production_counter)
        self.action = action
        self.internal = internal
        # rhs position -> (content symbol, lazy?) for positions holding
        # tree tokens whose contents the action parses recursively.
        # Pattern parsing uses this to statically check template groups.
        self.tree_contents: Dict[int, Tuple[object, bool]] = {}
        # Single-nonterminal identity productions (expression levels);
        # pattern matching and param extraction collapse these.
        self.passthrough = False

    def key(self) -> Tuple:
        return (self.lhs.name, tuple(s.name for s in self.rhs), self.tag)

    def __repr__(self) -> str:
        rhs = " ".join(s.name for s in self.rhs) or "<empty>"
        return f"{self.lhs.name} -> {rhs}"

    def last_terminal(self) -> Optional[Terminal]:
        for sym in reversed(self.rhs):
            if sym.is_terminal:
                return sym
        return None


def _intern_production(
    lhs: Nonterminal,
    rhs: Tuple[Symbol, ...],
    tag: str,
    prec: Optional[str],
    action: Optional[Callable],
    internal: bool,
) -> Production:
    key = (lhs.name, tuple(s.name for s in rhs), tag)
    existing = _production_registry.get(key)
    if existing is not None:
        return existing
    production = Production(lhs, rhs, tag, prec, action, internal)
    _production_registry[key] = production
    return production


RhsItem = Union[str, Symbol, ParameterizedSym]

# Helper-nonterminal registry: parameterized symbol -> (nonterminal, productions)
_helper_registry: Dict[str, Tuple[Nonterminal, Tuple[Production, ...]]] = {}


class Grammar:
    """A mutable, extensible grammar."""

    def __init__(self, name: str = "grammar"):
        self.name = name
        self.productions: List[Production] = []
        self._production_set: set = set()
        self.by_lhs: Dict[Nonterminal, List[Production]] = {}
        self.precedence = Precedence()
        self.start_symbols: List[Nonterminal] = []
        self.version = 0
        self._fingerprint: Optional[GrammarFingerprint] = None
        self._fingerprint_version = -1

    # -- construction ----------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Grammar":
        dup = Grammar(name or self.name)
        dup.productions = list(self.productions)
        dup._production_set = set(self._production_set)
        dup.by_lhs = {lhs: list(prods) for lhs, prods in self.by_lhs.items()}
        dup.precedence = self.precedence.copy()
        dup.start_symbols = list(self.start_symbols)
        dup.version = self.version
        dup._fingerprint = self._fingerprint
        dup._fingerprint_version = self._fingerprint_version
        return dup

    def declare_start(self, *symbols: Union[str, Nonterminal]) -> None:
        """Mark nonterminals as valid parse entry points.

        Node-type symbols must be starts so that subtrees, patterns, and
        templates can be parsed beginning at any of them.
        """
        for symbol in symbols:
            if isinstance(symbol, str):
                symbol = nonterminal(symbol)
            if symbol not in self.start_symbols:
                self.start_symbols.append(symbol)
                self.version += 1

    def add_production(
        self,
        lhs: Union[str, Nonterminal],
        rhs: Sequence[RhsItem],
        tag: Optional[str] = None,
        prec: Optional[str] = None,
        action: Optional[Callable] = None,
        internal: bool = False,
    ) -> Production:
        """Add a production, resolving parameterized symbols.

        Re-adding an identical production is a no-op returning the
        existing object (the paper: "If the productions and actions
        already exist in the grammar, they are not added again").
        """
        if isinstance(lhs, str):
            lhs_sym = Symbol.lookup(lhs)
            if lhs_sym is None:
                lhs_sym = nonterminal(lhs)
            lhs = lhs_sym
        if not isinstance(lhs, Nonterminal):
            raise GrammarError(f"production left-hand side {lhs!r} is not a nonterminal")
        resolved = tuple(self._resolve(item) for item in rhs)
        if tag is None:
            # Content-derived so re-adding an identical production finds
            # the interned original.
            tag = f"{lhs.name}<-{' '.join(s.name for s in resolved)}"
        production = _intern_production(lhs, resolved, tag, prec, action, internal)
        self._install(production)
        return production

    def _install(self, production: Production) -> None:
        if production in self._production_set:
            return
        self._production_set.add(production)
        self.productions.append(production)
        self.by_lhs.setdefault(production.lhs, []).append(production)
        self.version += 1

    def _resolve(self, item: RhsItem) -> Symbol:
        if isinstance(item, str):
            symbol = Symbol.lookup(item)
            if symbol is None:
                # Unknown names default to terminals: grammar authors
                # declare nonterminals explicitly (node-type symbols).
                symbol = terminal(item)
            return symbol
        if isinstance(item, Symbol):
            return item
        if isinstance(item, ParameterizedSym):
            return self._resolve_parameterized(item)
        raise GrammarError(f"bad right-hand-side item: {item!r}")

    def _resolve_parameterized(self, param: ParameterizedSym) -> Nonterminal:
        name = param.helper_name()
        cached = _helper_registry.get(name)
        if cached is None:
            cached = _build_helper(param)
            _helper_registry[name] = cached
        helper, productions = cached
        for production in productions:
            self._install(production)
        if isinstance(param, (TreeSym, LazySym)):
            # Subtree contents are parsed recursively, so their symbol
            # must be a valid parse entry point.
            self.declare_start(param.content)
        return helper

    def declare_precedence(self, assoc: Assoc, *terminal_names: str) -> None:
        """Declare a precedence level, bumping the grammar version so
        cached parse tables built under the old table are invalidated."""
        self.precedence.declare(assoc, *terminal_names)
        self.version += 1

    # -- queries -----------------------------------------------------------

    def fingerprint(self) -> GrammarFingerprint:
        """A content digest of the grammar's current state.

        O(1) after the first computation: the digest is cached and only
        recomputed when the version counter has moved (add_production,
        declare_start, declare_precedence).
        """
        if self._fingerprint is None or self._fingerprint_version != self.version:
            self._fingerprint = GrammarFingerprint.of((
                tuple(p.key() for p in self.productions),
                tuple(s.name for s in self.start_symbols),
                self.precedence.snapshot(),
            ))
            self._fingerprint_version = self.version
        return self._fingerprint

    def terminals(self) -> List[Terminal]:
        seen: Dict[str, Terminal] = {}
        for production in self.productions:
            for symbol in production.rhs:
                if symbol.is_terminal:
                    seen[symbol.name] = symbol
        return list(seen.values())

    def nonterminals(self) -> List[Nonterminal]:
        seen: Dict[str, Nonterminal] = {}
        for production in self.productions:
            seen.setdefault(production.lhs.name, production.lhs)
            for symbol in production.rhs:
                if not symbol.is_terminal:
                    seen.setdefault(symbol.name, symbol)
        return list(seen.values())

    def production_prec(self, production: Production) -> Optional[Tuple[int, Assoc]]:
        name = production.prec
        if name is None:
            last = production.last_terminal()
            name = last.name if last else None
        if name is None:
            return None
        return self.precedence.lookup(name)


# ---------------------------------------------------------------------------
# Helper production synthesis (the paper's G0/G1 productions).
# ---------------------------------------------------------------------------


def _build_helper(param: ParameterizedSym) -> Tuple[Nonterminal, Tuple[Production, ...]]:
    helper = nonterminal(param.helper_name())
    if isinstance(param, ListSym):
        return helper, _list_productions(helper, param)
    if isinstance(param, OptSym):
        return helper, _opt_productions(helper, param)
    if isinstance(param, TreeSym):
        return helper, _tree_productions(helper, param)
    if isinstance(param, LazySym):
        return helper, _lazy_productions(helper, param)
    raise GrammarError(f"unknown parameterized symbol {param!r}")


def _list_productions(helper: Nonterminal, param: ListSym) -> Tuple[Production, ...]:
    if param.min1:
        inner = helper
        productions: Tuple[Production, ...] = ()
    else:
        inner = nonterminal(param.helper_name() + "+")
        empty = _intern_production(
            helper, (), f"{helper.name}:empty", None, lambda ctx, values: [], True
        )
        some = _intern_production(
            helper, (inner,), f"{helper.name}:some", None,
            lambda ctx, values: values[0], True,
        )
        productions = (empty, some)
    single = _intern_production(
        inner,
        (param.element,),
        f"{inner.name}:single",
        None,
        lambda ctx, values: [values[0]],
        True,
    )
    if param.separator:
        sep = terminal(param.separator)
        more_rhs = (inner, sep, param.element)
        more_action = lambda ctx, values: values[0] + [values[2]]
    else:
        more_rhs = (inner, param.element)
        more_action = lambda ctx, values: values[0] + [values[1]]
    more = _intern_production(
        inner, more_rhs, f"{inner.name}:more", None, more_action, True
    )
    return productions + (single, more)


def _opt_productions(helper: Nonterminal, param: OptSym) -> Tuple[Production, ...]:
    absent = _intern_production(
        helper, (), f"{helper.name}:absent", None, lambda ctx, values: None, True
    )
    present = _intern_production(
        helper,
        (param.element,),
        f"{helper.name}:present",
        None,
        lambda ctx, values: values[0],
        True,
    )
    return (absent, present)


def _tree_productions(helper: Nonterminal, param: TreeSym) -> Tuple[Production, ...]:
    productions = []
    for kind in param.tree_kinds:
        tree_terminal = terminal(kind)

        def action(ctx, values, _content=param.content):
            return ctx.parse_subtree(values[0], _content)

        production = _intern_production(
            helper, (tree_terminal,), f"{helper.name}:{kind}", None, action, True
        )
        if kind not in ("EmptyParen", "Dims"):
            production.tree_contents[0] = (param.content, False)
        productions.append(production)
    return tuple(productions)


def _lazy_productions(helper: Nonterminal, param: LazySym) -> Tuple[Production, ...]:
    productions = []
    for kind in param.tree_kinds:
        tree_terminal = terminal(kind)

        def action(ctx, values, _content=param.content):
            return ctx.lazy_subtree(values[0], _content)

        production = _intern_production(
            helper, (tree_terminal,), f"{helper.name}:{kind}", None, action, True
        )
        if kind not in ("EmptyParen", "Dims"):
            production.tree_contents[0] = (param.content, True)
        productions.append(production)
    return tuple(productions)
