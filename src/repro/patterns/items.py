"""Pattern items: the input alphabet of the pattern parser.

A pattern (Mayan parameter list) or template body is lexed into a
sequence of items:

* ``TokItem`` — a concrete token (terminals, including tree tokens),
* ``HoleItem`` — a grammar-symbol hole: a Mayan formal parameter
  (possibly with a specializer) or a template unquote,
* ``GroupItem`` — a matched-delimiter group whose contents are
  themselves items; the consuming production decides (statically) what
  the contents must parse as.

Parameter-list surface syntax (the paper's, adapted):

    Expression:java.util.Enumeration enumExp \\. foreach (Formal var)
    lazy(BraceTree, BlockStmts) body

* A known symbol name starts a hole; ``:Type`` adds a static-type
  specializer (``ClassSpec`` on TypeName holes); a following unknown
  identifier names the binding.
* ``lazy(TreeKind, NT) name`` binds a lazily parsed subtree.
* ``list(X)`` / ``list(X, ',')`` denote repetition holes.
* ``\\tok`` is a literal token; unknown identifiers are literal
  identifier tokens (matched by *value*, so macros need no reserved
  words); other keywords/operators are literal tokens.

Template syntax adds ``$name`` and ``$(name)`` unquotes; hole symbols
are declared when the Template is constructed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.diag import Diagnostic, DiagnosticError, SourceSpan
from repro.dispatch.specializers import ClassSpec, Specializer, TokenSpec, TypeSpec
from repro.grammar import LazySym, ListSym, Nonterminal, Symbol
from repro.lexer import Location, Token, stream_lex


class PatternError(DiagnosticError):
    """An error in a pattern or template's surface syntax, located at
    the offending item when there is one."""

    phase = "expand"

    def __init__(self, message: str, location: Optional[Location] = None):
        super().__init__(message if location is None
                         else f"{location}: {message}")
        if location is not None:
            self.location = location
            self.diagnostic = Diagnostic(
                message, phase=self.phase,
                span=SourceSpan.from_location(location), cause=self)


class TokItem:
    __slots__ = ("token",)

    def __init__(self, token: Token):
        self.token = token

    @property
    def location(self) -> Location:
        return self.token.location

    def __repr__(self):
        return f"Tok({self.token.kind}:{self.token.text!r})"


class HoleItem:
    """A grammar-symbol hole.

    ``symbol`` is where the hole sits grammatically; ``declared`` is the
    symbol the user wrote (expression-family holes are lowered to
    Primary for parsing — splicing prebuilt trees at the primary level
    is what makes templates immune to precedence errors).
    """

    __slots__ = ("symbol", "declared", "name", "spec", "location")

    def __init__(self, symbol: Symbol, name: Optional[str] = None,
                 spec: Optional[Specializer] = None,
                 location: Location = Location.UNKNOWN,
                 declared: Optional[Symbol] = None):
        self.symbol = symbol
        self.declared = declared or symbol
        self.name = name
        self.spec = spec
        self.location = location

    def __repr__(self):
        name = f" {self.name}" if self.name else ""
        spec = f":{self.spec!r}" if self.spec else ""
        return f"Hole({self.declared.name}{spec}{name})"


class GroupItem:
    __slots__ = ("kind", "items", "location")

    def __init__(self, kind: str, items: List[object], location: Location):
        self.kind = kind
        self.items = items
        self.location = location

    def __repr__(self):
        return f"Group({self.kind}, {len(self.items)} items)"


# Expression-family nonterminals are lowered to Primary in holes.
_EXPRESSION_FAMILY = frozenset(
    ["Expression", "AssignExpr", "CondExpr", "OrExpr", "AndExpr",
     "BitOrExpr", "BitXorExpr", "BitAndExpr", "EqExpr", "RelExpr",
     "ShiftExpr", "AddExpr", "MulExpr", "UnaryExpr", "UnaryNPM",
     "PostfixExpr"]
)


def _hole_parse_symbol(declared: Symbol) -> Symbol:
    if declared.name in _EXPRESSION_FAMILY and declared.name != "Primary":
        lowered = Symbol.lookup("Primary")
        if lowered is not None:
            return lowered
    return declared


_TOKEN_CLASS_TERMINALS = frozenset(
    ["Identifier", "IntLit", "LongLit", "DoubleLit", "CharLit", "StringLit"]
)


def _is_symbol_name(text: str) -> Optional[Symbol]:
    """The symbol a pattern identifier denotes, or None for literals.

    Only nonterminals and token-class terminals start holes; any other
    identifier (even one that happens to name some grammar terminal) is
    a token literal matched by spelling.
    """
    symbol = Symbol.lookup(text)
    if symbol is None:
        return None
    if isinstance(symbol, Nonterminal):
        return symbol
    if text in _TOKEN_CLASS_TERMINALS:
        return symbol
    return None


# ---------------------------------------------------------------------------
# Parameter-list lexing
# ---------------------------------------------------------------------------


def _ensure_base_symbols() -> None:
    # Pattern lexing classifies identifiers by looking up grammar
    # symbols, so the base grammar's symbols must exist.
    from repro.javalang import base_grammar

    base_grammar()


def lex_pattern(source: str) -> List[object]:
    """Lex a Mayan parameter list into pattern items."""
    _ensure_base_symbols()
    tokens = stream_lex(source, "<pattern>")
    return _pattern_items(tokens)


def _pattern_items(tokens: Sequence[Token]) -> List[object]:
    items: List[object] = []
    position = 0
    while position < len(tokens):
        token = tokens[position]
        position += 1
        if token.text == "\\":
            if position >= len(tokens):
                raise PatternError("dangling escape", token.location)
            items.append(TokItem(tokens[position]))
            position += 1
            continue
        if token.is_tree:
            if token.kind in ("EmptyParen", "Dims"):
                items.append(TokItem(token))
            else:
                items.append(
                    GroupItem(token.kind, _pattern_items(token.children),
                              token.location)
                )
            continue
        if token.kind == "Identifier":
            handled, position = _identifier_item(tokens, position - 1, items)
            if handled:
                continue
            items.append(TokItem(token))
            continue
        items.append(TokItem(token))
    return items


def _identifier_item(tokens, index, items) -> Tuple[bool, int]:
    """Handle an identifier starting a hole/lazy/list; returns consumed."""
    token = tokens[index]
    text = token.text

    if text in ("lazy", "list", "list1") and index + 1 < len(tokens) \
            and tokens[index + 1].kind == "ParenTree":
        symbol = _parameterized_symbol(text, tokens[index + 1])
        index += 2
        name, index = _optional_name(tokens, index)
        items.append(HoleItem(symbol, name, None, token.location))
        return True, index

    declared = _is_symbol_name(text)
    if declared is None:
        return False, index + 1

    index += 1
    spec: Optional[Specializer] = None
    if index < len(tokens) and tokens[index].text == ":":
        index += 1
        parts, dims, index = _dotted_type(tokens, index, token.location)
        if isinstance(declared, Nonterminal) and declared.name == "TypeName":
            spec = ClassSpec(parts, dims)
        else:
            spec = TypeSpec(parts, dims)
    name, index = _optional_name(tokens, index)
    parse_symbol = _hole_parse_symbol(declared)
    items.append(HoleItem(parse_symbol, name, spec, token.location,
                          declared=declared))
    return True, index


def _optional_name(tokens, index) -> Tuple[Optional[str], int]:
    if (
        index < len(tokens)
        and tokens[index].kind == "Identifier"
        and _is_symbol_name(tokens[index].text) is None
        and not tokens[index].text[0].isupper()
    ):
        return tokens[index].text, index + 1
    return None, index


def _dotted_type(tokens, index, location) -> Tuple[Tuple[str, ...], int, int]:
    parts: List[str] = []
    if index >= len(tokens) or tokens[index].kind not in (
        "Identifier", "int", "boolean", "byte", "short", "long", "char",
        "float", "double",
    ):
        raise PatternError("expected type name after ':'", location)
    parts.append(tokens[index].text)
    index += 1
    while (
        index + 1 < len(tokens)
        and tokens[index].text == "."
        and tokens[index + 1].kind == "Identifier"
    ):
        parts.append(tokens[index + 1].text)
        index += 2
    dims = 0
    while index < len(tokens) and tokens[index].kind == "Dims":
        dims += 1
        index += 1
    return tuple(parts), dims, index


def _parameterized_symbol(keyword: str, paren: Token) -> Nonterminal:
    """Resolve lazy(...)/list(...) in a pattern to its helper nonterminal."""
    children = list(paren.children)
    args: List[List[Token]] = [[]]
    for child in children:
        if child.text == ",":
            args.append([])
        else:
            args[-1].append(child)
    if keyword == "lazy":
        if len(args) != 2 or len(args[0]) != 1 or len(args[1]) != 1:
            raise PatternError("lazy(TreeKind, Symbol)", paren.location)
        tree_kind = args[0][0].text
        content = _require_symbol(args[1][0])
        param = LazySym((tree_kind,), content)
    else:
        if not args[0] or len(args[0]) != 1:
            raise PatternError("list(Symbol[, 'sep'])", paren.location)
        element = _require_symbol(args[0][0])
        separator = ""
        if len(args) > 1:
            sep_token = args[1][0]
            separator = sep_token.text
        param = ListSym(element, separator, min1=(keyword == "list1"))
    helper = Symbol.lookup(param.helper_name())
    if helper is None:
        raise PatternError(
            f"{param.helper_name()} is not part of the grammar (declare "
            f"the production first)", paren.location)
    return helper


def _require_symbol(token: Token) -> Symbol:
    symbol = Symbol.lookup(token.text)
    if symbol is None:
        raise PatternError(f"unknown symbol {token.text!r}", token.location)
    return symbol


# ---------------------------------------------------------------------------
# Template lexing
# ---------------------------------------------------------------------------


def lex_template(source: str, holes: Dict[str, Symbol]) -> List[object]:
    """Lex a template body; ``holes`` maps unquote names to symbols."""
    _ensure_base_symbols()
    tokens = stream_lex(source, "<template>")
    return _template_items(tokens, holes)


def _template_items(tokens: Sequence[Token], holes: Dict[str, Symbol]) -> List[object]:
    items: List[object] = []
    position = 0
    while position < len(tokens):
        token = tokens[position]
        position += 1
        if token.kind == "Identifier" and token.text.startswith("$"):
            items.append(_hole_for(token.text[1:], holes, token.location))
            continue
        if token.text == "$":
            if position >= len(tokens) or not (
                tokens[position].kind == "ParenTree"
                and len(tokens[position].children) == 1
                and tokens[position].children[0].kind == "Identifier"
            ):
                raise PatternError("$ must be followed by a name or (name)",
                                   token.location)
            name = tokens[position].children[0].text
            items.append(_hole_for(name, holes, token.location))
            position += 1
            continue
        if token.is_tree and token.kind not in ("EmptyParen", "Dims"):
            items.append(
                GroupItem(token.kind, _template_items(token.children, holes),
                          token.location)
            )
            continue
        items.append(TokItem(token))
    return items


def _hole_for(name: str, holes: Dict[str, Symbol], location) -> HoleItem:
    declared = holes.get(name)
    if declared is None:
        raise PatternError(
            f"unquote ${name} has no declared grammar symbol", location)
    return HoleItem(_hole_parse_symbol(declared), name, None, location,
                    declared=declared)
