"""The pattern parser (paper section 4.2): a reduction sink on the
LALR(1) parse driver.

The paper's pattern parser is "a standard LALR(1) driver extended to
accept nonterminal input symbols".  Here that driver is
``repro.lalr.parser.Parser``, the one that parses programs; it applies
section 4.2's rules when the input is a nonterminal X (follow the goto
on X; else reduce when every action on FIRST(X) is the same
reduction).  This module supplies the pattern's side of the loop:

* the input: each pattern item becomes a partial-parse-tree leaf (a
  concrete token, a hole, or an unparsed group) that the driver reads
  as it reads a token;
* the sink: each reduction builds a ``PTNode`` at its lookahead item's
  location (``Location.UNKNOWN`` at end of input).  No unit reduction
  is skipped (``params.py`` walks the passthrough chains) and no
  internal action runs;
* the errors: ``PatternParseError`` diagnostics located at the item no
  action takes, or at the pattern's last item when it ends too soon;
* statement lists, parsed a statement at a time so ``BlockStmts`` and
  ``MemberList`` holes can be spliced, and groups, whose contents are
  pattern-parsed afterwards according to the consuming production's
  declared subtree contents.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.grammar import Production
from repro.lexer import Location, Token
from repro.lalr.parser import Parser, ParserContext
from repro.lalr.tables import ParseTables
from repro.patterns.items import GroupItem, HoleItem, PatternError, TokItem


class PatternParseError(PatternError):
    """A pattern or template body is not syntactically valid."""

    def __init__(self, message: str, location: Location,
                 expected: Sequence[str] = ()):
        self.expected = list(expected)
        if expected:
            message += f" (expected {', '.join(expected)})"
        super().__init__(message, location)

    def owned_by(self, owner: str, filename: str) -> "PatternParseError":
        """This error, or, when it has no location (an empty pattern has
        no item to point at), one that names the pattern's owner."""
        if self.location != Location.UNKNOWN:
            return self
        return PatternParseError(f"{self.diagnostic.message} in {owner}",
                                 Location(filename, 1, 1))


# ---------------------------------------------------------------------------
# Partial parse trees
#
# A leaf is also the parse driver's input symbol for its item: it has
# the ``kind`` (a grammar symbol's name), ``text`` and ``location`` the
# driver reads off a token.
# ---------------------------------------------------------------------------


class PTLeaf:
    """A concrete token in a pattern parse tree."""

    __slots__ = ("token", "kind", "text", "location", "meta")

    def __init__(self, token: Token):
        self.token = token
        self.kind = token.kind
        self.text = token.text
        self.location = token.location
        self.meta = {}

    def __repr__(self):
        return f"PTLeaf({self.token.text!r})"


class PTHole:
    """A nonterminal (or terminal) hole."""

    __slots__ = ("item", "kind", "location", "meta")

    text = None

    def __init__(self, item: HoleItem):
        self.item = item
        self.kind = item.symbol.name
        self.location = item.location
        self.meta = {}

    def __repr__(self):
        return f"PTHole({self.item!r})"


class PTGroup:
    """A matched-delimiter group, with its content compiled post-parse.

    ``content`` is filled in by the group-resolution pass: a PT tree (or
    PTStmts) for eager positions, the same but flagged lazy for lazy
    positions, or None for groups with no declared content (opaque).
    """

    __slots__ = ("group", "kind", "location", "content", "content_symbol",
                 "lazy", "meta")

    text = None

    def __init__(self, group: GroupItem):
        self.group = group
        self.kind = group.kind
        self.location = group.location
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

#: Statement-list symbols and their elements: a list pattern is parsed
#: one element at a time, so holes of the list symbol can be spliced.
STATEMENT_LISTS = {"BlockStmts": "Statement", "MemberList": "MemberDecl"}


def _leaf(item):
    if isinstance(item, TokItem):
        return PTLeaf(item.token)
    if isinstance(item, GroupItem):
        return PTGroup(item)
    if isinstance(item, HoleItem):
        return PTHole(item)
    raise TypeError(f"bad pattern item {item!r}")


class _PatternSink(ParserContext):
    """Reductions build PTNodes; input no action takes is a located
    PatternParseError."""

    at_lookahead = True

    def reduce(self, production: Production, values, location: Location):
        return PTNode(production, values, location)

    def syntax_error(self, leaf, start, location, expected=(), complete=False):
        if leaf is None:
            return PatternParseError(
                f"pattern ends before a complete {start}", location)
        if isinstance(leaf, PTHole) and not leaf.item.symbol.is_terminal:
            return PatternParseError(
                f"a {leaf.item.declared.name} cannot appear here while "
                f"parsing {start}", location, expected)
        if isinstance(leaf, PTLeaf):
            described = f"token {leaf.text!r}"
        elif isinstance(leaf, PTGroup):
            described = f"{leaf.kind} group"
        else:
            described = f"${leaf.item.name}"
        return PatternParseError(
            f"unexpected {described} while parsing {start}", location,
            expected)


_SINK = _PatternSink()


class PatternParser:
    """Parses pattern-item sequences against a grammar's tables."""

    def __init__(self, tables: ParseTables):
        self.tables = tables

    def parse(self, start: str, items: List[object],
              allow_prefix: bool = False, offset: int = 0) -> Tuple[object, int]:
        """Pattern-parse ``items[offset:]`` starting at ``start``.

        Returns (PT tree, next offset).  Group contents are resolved
        recursively before returning.
        """
        return self._parse(start, [_leaf(item) for item in items],
                           allow_prefix, offset)

    def _parse(self, start: str, leaves: List[object], allow_prefix: bool,
               offset: int) -> Tuple[object, int]:
        if start in STATEMENT_LISTS:
            return self._parse_stmts(leaves[offset:], start), len(leaves)
        parser = Parser(self.tables, _SINK)
        tree, consumed = parser.parse(start, leaves, allow_prefix, offset)
        self._resolve_groups(tree)
        return tree, consumed

    # -- statement-list driver ------------------------------------------------

    def _parse_stmts(self, leaves: List[object], start: str) -> PTStmts:
        element_symbol = STATEMENT_LISTS[start]
        elements: List[object] = []
        position = 0
        while position < len(leaves):
            leaf = leaves[position]
            if isinstance(leaf, PTHole) and leaf.item.declared.name == start:
                # A statement-list splice (e.g. $body : BlockStmts).
                elements.append(leaf)
                position += 1
                continue
            tree, position = self._parse(element_symbol, leaves, True,
                                         position)
            elements.append(tree)
        return PTStmts(elements)

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
                    child.content, _ = self.parse(content_symbol.name,
                                                  child.group.items)
                else:
                    self._resolve_groups(child)
        elif isinstance(tree, PTStmts):
            for element in tree.elements:
                self._resolve_groups(element)
