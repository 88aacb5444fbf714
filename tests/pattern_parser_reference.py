"""The pattern parser before it became a reduction sink on the LALR(1)
parse driver: the differential oracle for
``repro.patterns.pattern_parser`` (tests only).

This is the paper's section 4.2 algorithm as its own shift/reduce loop,
kept verbatim from the module it replaced: a standard LALR(1) driver
extended to accept *nonterminal* input symbols.  When the input is a
nonterminal X in state s0:

1. if s0 contains a goto for X, X is shifted and the goto followed;
2. otherwise, if the actions on FIRST(X) all reduce the same rule, the
   stack is reduced, leading to a state in which one of these
   conditions holds.

If neither holds the input is invalid.  The output is a *partial parse
tree* that may contain nonterminal leaves (holes), concrete tokens, and
unparsed groups; groups are recursively pattern-parsed afterwards,
according to the consuming production's declared subtree contents.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.grammar import Nonterminal, Production, Symbol
from repro.lexer import Location, Token
from repro.lalr.tables import ACCEPT, REDUCE, SHIFT, ParseTables
from repro.patterns.items import GroupItem, HoleItem, PatternError, TokItem


class PatternParseError(PatternError):
    """A pattern or template body is not syntactically valid."""


# ---------------------------------------------------------------------------
# Partial parse trees
# ---------------------------------------------------------------------------


class PTLeaf:
    """A concrete token in a pattern parse tree."""

    __slots__ = ("token", "meta")

    def __init__(self, token: Token):
        self.token = token
        self.meta = {}

    def __repr__(self):
        return f"PTLeaf({self.token.text!r})"


class PTHole:
    """A nonterminal (or terminal) hole."""

    __slots__ = ("item", "meta")

    def __init__(self, item: HoleItem):
        self.item = item
        self.meta = {}

    def __repr__(self):
        return f"PTHole({self.item!r})"


class PTGroup:
    """A matched-delimiter group, with its content compiled post-parse.

    ``content`` is filled in by the group-resolution pass: a PT tree (or
    PTStmts) for eager positions, the same but flagged lazy for lazy
    positions, or None for groups with no declared content (opaque).
    """

    __slots__ = ("group", "content", "content_symbol", "lazy", "meta")

    def __init__(self, group: GroupItem):
        self.group = group
        self.content = None
        self.content_symbol = None
        self.lazy = False
        self.meta = {}

    def __repr__(self):
        return f"PTGroup({self.group.kind}, lazy={self.lazy})"


class PTNode:
    """An inner node: a production applied to child trees."""

    __slots__ = ("production", "children", "location", "meta")

    def __init__(self, production: Production, children: List[object],
                 location: Location):
        self.production = production
        self.children = children
        self.location = location
        self.meta = {}

    def __repr__(self):
        return f"PTNode({self.production.tag})"


class PTStmts:
    """A statement-list pattern (content of a block): parsed one
    statement at a time, so BlockStmts holes can be spliced."""

    __slots__ = ("elements", "meta")

    def __init__(self, elements: List[object]):
        self.elements = elements
        self.meta = {}

    def __repr__(self):
        return f"PTStmts({len(self.elements)})"


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------


class PatternParser:
    """Parses pattern-item sequences against a grammar's tables."""

    def __init__(self, tables: ParseTables, driver_nonterminals=("BlockStmts", "MemberList")):
        self.tables = tables
        self.driver_nonterminals = frozenset(driver_nonterminals)

    # -- public API ---------------------------------------------------------

    def parse(self, start: str, items: List[object],
              allow_prefix: bool = False, offset: int = 0) -> Tuple[object, int]:
        """Pattern-parse ``items[offset:]`` starting at ``start``.

        Returns (PT tree, next offset).  Group contents are resolved
        recursively before returning.
        """
        if start in self.driver_nonterminals:
            tree = self._parse_stmts(items[offset:], start)
            return tree, len(items)
        tree, consumed = self._parse_core(start, items, allow_prefix, offset)
        self._resolve_groups(tree)
        return tree, consumed

    # -- statement-list driver ------------------------------------------------

    def _parse_stmts(self, items: List[object], start: str) -> PTStmts:
        element_symbol = "Statement" if start == "BlockStmts" else "MemberDecl"
        elements: List[object] = []
        position = 0
        while position < len(items):
            item = items[position]
            if isinstance(item, HoleItem) and item.declared.name == start:
                # A statement-list splice (e.g. $body : BlockStmts).
                elements.append(PTHole(item))
                position += 1
                continue
            tree, position = self._parse_core(
                element_symbol, items, True, position
            )
            self._resolve_groups(tree)
            elements.append(tree)
        return PTStmts(elements)

    # -- the core algorithm -----------------------------------------------------

    def _parse_core(self, start: str, items: List[object],
                    allow_prefix: bool, offset: int) -> Tuple[object, int]:
        tables = self.tables
        encoded = tables.encoded
        eof = tables.eof_id(start)
        states = [tables.start_state(start)]
        values: List[object] = []

        position = offset
        length = len(items)

        def location_of(item) -> Location:
            return getattr(item, "location", Location.UNKNOWN)

        while True:
            item = items[position] if position < length else None

            if item is None:
                finished = self._finish(eof, states, values)
                if finished is not None:
                    return finished, position
                raise PatternParseError(
                    f"pattern ends before a complete {start}"
                )

            if isinstance(item, HoleItem) and not item.symbol.is_terminal:
                if not self._shift_nonterminal(item, states, values):
                    if allow_prefix:
                        finished = self._finish(eof, states, values)
                        if finished is not None:
                            return finished, position
                    raise PatternParseError(
                        f"{location_of(item)}: a {item.declared.name} cannot "
                        f"appear here while parsing {start} (expected "
                        f"{', '.join(tables.expected_terminals(states[-1]))})"
                    )
                position += 1
                continue

            # Terminal-ish input: concrete token, group, or terminal hole.
            candidates, describe = self._terminal_of(item)
            entry = self._terminal_action(states[-1], candidates)
            if entry is None:
                finished = self._finish(eof, states, values) if allow_prefix else None
                if finished is not None:
                    return finished, position
                raise PatternParseError(
                    f"{location_of(item)}: unexpected {describe} while "
                    f"parsing {start} (expected "
                    f"{', '.join(tables.expected_terminals(states[-1]))})"
                )
            kind, value = entry
            if kind == SHIFT:
                states.append(value)
                values.append(self._leaf_for(item))
                position += 1
            elif kind == REDUCE:
                self._reduce(value, states, values, location_of(item))
            else:  # pragma: no cover - accept only reachable via eof
                raise PatternParseError("unexpected accept")

    def _terminal_of(self, item) -> Tuple[List[int], str]:
        """Candidate terminal ids for an input item, most specific first.

        Identifier tokens that spell a grammar terminal (a "token
        literal" production argument, e.g. ``typedef``) try that
        terminal first and fall back to the generic Identifier.
        """
        tables = self.tables
        candidates: List[int] = []
        if isinstance(item, TokItem):
            token = item.token
            if token.kind == "Identifier":
                specific = tables.symbol_id(token.text)
                if specific is not None and tables.encoded.is_terminal[specific]:
                    candidates.append(specific)
            generic = tables.symbol_id(token.kind)
            if generic is not None:
                candidates.append(generic)
            return candidates, f"token {token.text!r}"
        if isinstance(item, GroupItem):
            terminal = tables.symbol_id(item.kind)
            if terminal is not None:
                candidates.append(terminal)
            return candidates, f"{item.kind} group"
        if isinstance(item, HoleItem):  # terminal hole
            terminal = tables.symbol_id(item.symbol.name)
            if terminal is not None:
                candidates.append(terminal)
            return candidates, f"${item.name}"
        raise TypeError(f"bad pattern item {item!r}")

    def _terminal_action(self, state: int, candidates: List[int]):
        for terminal in candidates:
            entry = self.tables.action[state].get(terminal)
            if entry is not None:
                return entry
        return None

    def _leaf_for(self, item):
        if isinstance(item, TokItem):
            return PTLeaf(item.token)
        if isinstance(item, GroupItem):
            return PTGroup(item)
        return PTHole(item)

    def _shift_nonterminal(self, item: HoleItem, states, values) -> bool:
        """Cases 1 and 2 of the paper's algorithm."""
        tables = self.tables
        encoded = tables.encoded
        sym_id = tables.symbol_id(item.symbol.name)
        if sym_id is None:
            return False
        firsts = encoded.first[sym_id]
        guard = 0
        while True:
            state = states[-1]
            target = tables.goto[state].get(sym_id)
            if target is not None:
                states.append(target)
                values.append(PTHole(item))
                return True
            # All actions on FIRST(X) must reduce the same rule.
            entries = {
                self.tables.action[state].get(t)
                for t in firsts
            }
            entries.discard(None)
            if len(entries) != 1:
                return False
            kind, value = next(iter(entries))
            if kind != REDUCE:
                return False
            self._reduce(value, states, values, item.location)
            guard += 1
            if guard > 10_000:  # pragma: no cover - corrupt tables only
                raise PatternParseError("pattern parser did not converge")

    def _reduce(self, prod_index: int, states, values, location: Location) -> None:
        tables = self.tables
        lhs_id, rhs = tables.encoded.productions[prod_index]
        production = tables.encoded.production_objects[prod_index]
        count = len(rhs)
        children = values[-count:] if count else []
        if count:
            del states[-count:]
            del values[-count:]
        node = PTNode(production, list(children), location)
        target = tables.goto[states[-1]].get(lhs_id)
        if target is None:  # pragma: no cover
            raise PatternParseError(f"no goto for {production.lhs.name}")
        states.append(target)
        values.append(node)

    def _finish(self, eof: int, states, values):
        saved_states = list(states)
        saved_values = list(values)
        while True:
            entry = self.tables.action[saved_states[-1]].get(eof)
            if entry is None:
                return None
            kind, value = entry
            if kind == ACCEPT:
                return saved_values[-1]
            if kind != REDUCE:
                return None
            self._reduce(value, saved_states, saved_values, Location.UNKNOWN)

    # -- group resolution ----------------------------------------------------

    def _resolve_groups(self, tree) -> None:
        """Recursively parse group contents per the consuming production."""
        if isinstance(tree, PTNode):
            for position, child in enumerate(tree.children):
                if isinstance(child, PTGroup):
                    spec = tree.production.tree_contents.get(position)
                    if spec is None:
                        continue  # opaque group (no declared content)
                    content_symbol, lazy = spec
                    child.content_symbol = content_symbol
                    child.lazy = lazy
                    child.content, _ = self.parse(
                        content_symbol.name, child.group.items
                    )
                else:
                    self._resolve_groups(child)
        elif isinstance(tree, PTStmts):
            for element in tree.elements:
                self._resolve_groups(element)
