"""From pattern parse trees to productions and Mayan parameters.

Two services live here:

* ``production_from_pattern`` — the paper's production declaration,
  ``abstract Statement syntax(MethodName(Formal) lazy(BraceTree,
  BlockStmts))``: a high-level metagrammar line is lowered to an LALR
  production whose subtree/lazy arguments become helper symbols.
* ``compile_parameter_list`` — the paper's Mayan parameter lists: the
  pattern parser infers the structure of the flat parameter sequence
  (figure 5) and we convert the resulting tree into Param specializers
  for the dispatcher.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dispatch.specializers import Param, StructSpec, TokenSpec
from repro.grammar import (
    Grammar,
    GrammarError,
    LazySym,
    ListSym,
    Nonterminal,
    Production,
    Symbol,
    TreeSym,
    terminal,
)
from repro.lexer import Token, stream_lex
from repro.lalr.tables import ParseTables
from repro.patterns.items import (
    GroupItem,
    HoleItem,
    PatternError,
    TokItem,
    lex_pattern,
)
from repro.patterns.pattern_parser import (
    PatternParser,
    PTGroup,
    PTHole,
    PTLeaf,
    PTNode,
)

# Content symbols that may legally be empty, so their paren groups also
# accept the EmptyParen token.
_EMPTIABLE_CONTENT = frozenset(["FormalList", "ArgList", "VarInitList"])


# ---------------------------------------------------------------------------
# Production declaration
# ---------------------------------------------------------------------------


def production_from_pattern(grammar: Grammar, result: str, source: str,
                            tag: Optional[str] = None) -> Production:
    """Declare a production from the paper's metagrammar surface syntax.

    Example:  production_from_pattern(g, "Statement",
                  "MethodName (Formal) lazy(BraceTree, BlockStmts)")
    """
    tokens = stream_lex(source, "<production>")
    rhs = _decl_rhs(tokens)
    for item in rhs:
        if isinstance(item, _SyntheticGroup):
            item.install(grammar)
    return grammar.add_production(result, rhs, tag=tag)


def _decl_rhs(tokens) -> List[object]:
    rhs: List[object] = []
    position = 0
    while position < len(tokens):
        token = tokens[position]
        position += 1
        if token.text == "\\":
            rhs.append(terminal(tokens[position].kind
                                if tokens[position].kind != "Identifier"
                                else tokens[position].text))
            position += 1
            continue
        if token.kind == "Identifier":
            if token.text in ("lazy", "list", "list1") and position < len(tokens) \
                    and tokens[position].kind == "ParenTree":
                rhs.append(_decl_parameterized(token.text, tokens[position]))
                position += 1
                continue
            symbol = Symbol.lookup(token.text)
            if symbol is not None:
                rhs.append(symbol)
            else:
                # A token literal: matched against identifier spellings.
                rhs.append(terminal(token.text))
            continue
        if token.kind in ("ParenTree", "BraceTree", "BracketTree"):
            rhs.append(_group_symbol(token))
            continue
        # Fixed tokens (keywords, operators) are literal terminals.
        rhs.append(terminal(token.kind))
    return rhs


def _group_symbol(token: Token):
    """A subtree group in a production declaration.

    A single known symbol becomes a TreeSym on that symbol (the paper's
    G0: "the semantic action ... recursively parses the ParenTree to a
    Formal").  Multiple symbols synthesize a *group nonterminal* whose
    production parses the sequence and yields a SyntaxList, so Mayan
    patterns can destructure it.
    """
    kind = token.kind
    inner = list(token.children)
    if len(inner) == 1 and Symbol.lookup(inner[0].text) is not None:
        content = Symbol.lookup(inner[0].text)
        kinds = (kind, "EmptyParen") if kind == "ParenTree" \
            and content.name in _EMPTIABLE_CONTENT else (kind,)
        return TreeSym(kinds, content)
    # Multi-symbol group: synthesize Group -> <sequence>.
    sequence = _decl_rhs(inner)
    group_name = "group(" + " ".join(_item_name(s) for s in sequence) + ")"
    from repro.grammar import nonterminal as make_nonterminal

    group_nt = make_nonterminal(group_name)
    return _SyntheticGroup(kind, group_nt, sequence)


def _item_name(item) -> str:
    if isinstance(item, Symbol):
        return item.name
    return item.helper_name()


class _SyntheticGroup(TreeSym):
    """A TreeSym over a synthesized group nonterminal; installing it
    also installs the group's sequence production."""

    def __init__(self, kind: str, group_nt, sequence):
        super().__init__((kind,), group_nt)
        self.sequence = sequence

    def install(self, grammar: Grammar) -> None:
        from repro.ast.nodes import SyntaxList

        holder = {}

        def action(ctx, values):
            node = SyntaxList(list(values))
            node.syntax = (holder["production"], tuple(values))
            return node

        production = grammar.add_production(
            self.content, self.sequence, tag=f"group:{self.content.name}",
            action=action, internal=True,
        )
        holder["production"] = production


def _decl_parameterized(keyword: str, paren: Token):
    args: List[List[Token]] = [[]]
    for child in paren.children:
        if child.text == ",":
            args.append([])
        else:
            args[-1].append(child)
    if keyword == "lazy":
        if len(args) != 2:
            raise PatternError("lazy(TreeKind, Symbol)", paren.location)
        content = Symbol.lookup(args[1][0].text)
        if content is None:
            raise PatternError(f"unknown symbol {args[1][0].text!r}",
                               paren.location)
        return LazySym((args[0][0].text,), content)
    element = Symbol.lookup(args[0][0].text)
    if element is None:
        raise PatternError(f"unknown symbol {args[0][0].text!r}",
                           paren.location)
    separator = args[1][0].text if len(args) > 1 else ""
    return ListSym(element, separator, min1=(keyword == "list1"))


# ---------------------------------------------------------------------------
# Mayan parameter lists
# ---------------------------------------------------------------------------


def compile_parameter_list(
    tables: ParseTables, result: str, source: str
) -> Tuple[Production, List[Param], List[str]]:
    """Compile a Mayan parameter list against the given tables.

    Returns the production the Mayan implements, one Param per
    right-hand-side slot, and the binding names in appearance order.
    """
    items = lex_pattern(source)
    parser = PatternParser(tables)
    tree, _ = parser.parse(result, items)
    tree = _collapse(tree)
    if not isinstance(tree, PTNode):
        raise PatternError(
            f"parameter list for {result} does not select a production"
        )
    params = [_param_of(child) for child in tree.children]
    names: List[str] = []
    for param in params:
        _collect_names(param, names)
    return tree.production, params, names


def _collapse(tree):
    while isinstance(tree, PTNode) and tree.production.passthrough:
        tree = tree.children[0]
    return tree


def _param_of(child) -> Param:
    child = _collapse(child)
    if isinstance(child, PTHole):
        item = child.item
        return Param(item.declared, item.name, item.spec)
    if isinstance(child, PTLeaf):
        token = child.token
        if token.kind == "Identifier":
            return Param(terminal("Identifier"), None, TokenSpec(token.text))
        return Param(terminal(token.kind))
    if isinstance(child, PTGroup):
        # A group slot on an ordinary production holds the *raw tree
        # token* at dispatch time (the base action parses it itself).
        content = _collapse(child.content) if child.content is not None else None
        if content is None:
            return Param(terminal(child.group.kind))
        if isinstance(content, PTHole) and content.item.spec is None \
                and content.item.declared is child.content_symbol:
            # A whole-content hole (e.g. "(ArgList args)"): bind the raw
            # token; the Mayan parses it with ctx.parse_subtree.
            return Param(terminal(child.group.kind), content.item.name)
        # Destructured content: parse the token during matching.
        elements: List[Param] = []
        _flatten_elements(content, elements)
        from repro.dispatch.specializers import GroupSpec

        return Param(
            terminal(child.group.kind), None,
            GroupSpec(child.content_symbol, elements),
        )
    if isinstance(child, PTNode):
        production = child.production
        if production.internal and production.tree_contents.get(0):
            # Tree/lazy helper: the runtime value is the parsed content.
            return _content_param(child.children[0], production)
        if production.internal and production.tag.startswith("group:"):
            subparams = [_param_of(sub) for sub in child.children]
            return Param(production.lhs, None, StructSpec(production, subparams))
        if production.internal and production.lhs.name.startswith("list"):
            # A list helper with explicit element patterns: match the
            # runtime list elementwise (binds element names).
            from repro.dispatch.specializers import GroupSpec

            elements: List[Param] = []
            _flatten_elements(child, elements)
            if any(_has_binding_or_spec(p) for p in elements):
                return Param(production.lhs, None,
                             GroupSpec(production.lhs, elements))
            return Param(production.lhs)
        if production.internal:
            # Other helpers: match anything the helper produces.
            return Param(production.lhs)
        subparams = [_param_of(sub) for sub in child.children]
        return Param(production.lhs, None, StructSpec(production, subparams))
    raise PatternError(f"cannot convert {child!r} to a parameter")


def _has_binding_or_spec(param: Param) -> bool:
    if param.name or param.spec:
        return True
    return False


def _flatten_elements(tree, out: List[Param]) -> None:
    """Element-level params of a (possibly list-structured) content."""
    tree = _collapse(tree)
    if isinstance(tree, PTNode):
        production = tree.production
        if production.internal and production.lhs.name.startswith("list"):
            for sub in tree.children:
                if isinstance(sub, PTLeaf) and not sub.token.is_tree \
                        and sub.token.kind in (",", ";"):
                    continue
                _flatten_elements(sub, out)
            return
        if not production.internal and len(production.rhs) == 1 \
                and production.rhs[0].name.startswith(("list(", "list1(")):
            _flatten_elements(tree.children[0], out)
            return
    out.append(_param_of(tree))


def _content_param(group_child, helper_production) -> Param:
    """The parameter for a tree-helper slot: its parsed content."""
    if isinstance(group_child, PTGroup):
        if group_child.content is None:
            raise PatternError("group has no grammatical content here",
                               group_child.group.location)
        return _param_of(group_child.content)
    return _param_of(group_child)


def _collect_names(param: Param, names: List[str]) -> None:
    if param.name:
        names.append(param.name)
    if isinstance(param.spec, StructSpec):
        for sub in param.spec.subparams:
            _collect_names(sub, names)
