"""Static hygiene analysis of compiled templates.

Runs at template compile time over the pattern parse tree:

* identifiers in binding positions (under ``UnboundLocal``) are
  *binders*: marked for fresh renaming at instantiation;
* name references whose first segment is a template binder are marked
  for the same renaming;
* type names are resolved against the definition-site registry and
  marked to instantiate as ``StrictTypeName`` (referential
  transparency);
* expression names are resolved to class prefixes where possible and
  the resolution embedded as a hint;
* anything else is a *free variable* — reported now, at template
  compile time, not when the template runs (the paper's static
  guarantee).

Unquoted identifiers (holes) are exempt everywhere: unquoting an
Identifier-valued expression is Maya's explicit hygiene-breaking
mechanism.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.diag import DiagnosticError
from repro.patterns.pattern_parser import (
    PTGroup,
    PTHole,
    PTLeaf,
    PTNode,
    PTStmts,
)

BINDING_NONTERMINALS = frozenset(["UnboundLocal"])


class HygieneError(DiagnosticError):
    """A template refers to a free variable or unknown type."""

    phase = "expand"


class TemplateInfo:
    """The result of hygiene analysis: the set of binder names."""

    def __init__(self, binders: Set[str]):
        self.binders = binders


def analyze_template(tree, registry) -> TemplateInfo:
    """Analyze and annotate a template's pattern parse tree in place."""
    binders: Set[str] = set()
    _collect_binders(tree, binders)
    _check_references(tree, None, binders, registry)
    return TemplateInfo(binders)


# ---------------------------------------------------------------------------
# Pass 1: binders
# ---------------------------------------------------------------------------


def _collect_binders(tree, binders: Set[str]) -> None:
    if isinstance(tree, PTNode):
        if tree.production.lhs.name in BINDING_NONTERMINALS:
            child = tree.children[0]
            if isinstance(child, PTLeaf):
                child.meta["binder"] = True
                binders.add(child.token.text)
        for child in tree.children:
            _collect_binders(child, binders)
    elif isinstance(tree, PTStmts):
        for element in tree.elements:
            _collect_binders(element, binders)
    elif isinstance(tree, PTGroup) and tree.content is not None:
        _collect_binders(tree.content, binders)


# ---------------------------------------------------------------------------
# Pass 2: references
# ---------------------------------------------------------------------------


def _check_references(tree, parent: Optional[PTNode], binders, registry) -> None:
    if isinstance(tree, PTNode):
        if tree.production.lhs.name == "QName" and not _parent_is_qname(parent):
            _analyze_qname(tree, parent, binders, registry)
            # Children below a maximal QName were handled by the chain
            # analysis; still descend for nested holes/groups.
        for child in tree.children:
            _check_references(child, tree, binders, registry)
    elif isinstance(tree, PTStmts):
        for element in tree.elements:
            _check_references(element, None, binders, registry)
    elif isinstance(tree, PTGroup) and tree.content is not None:
        _check_references(tree.content, None, binders, registry)


def _parent_is_qname(parent: Optional[PTNode]) -> bool:
    return parent is not None and parent.production.lhs.name == "QName"


def _qname_chain(node: PTNode) -> Tuple[List[str], List[object], bool]:
    """The dotted parts and segment leaves of a QName chain.

    The final flag is False when any segment is a hole (unquoted
    identifier), which exempts the chain from hygiene checks.
    """
    parts: List[str] = []
    leaves: List[object] = []
    pure = True
    pending = [node]  # depth first, children in order
    while pending:
        current = pending.pop()
        if isinstance(current, PTNode) and current.production.lhs.name == "QName":
            pending.extend(reversed(current.children))
        elif isinstance(current, PTLeaf):
            if current.token.kind == "Identifier":
                parts.append(current.token.text)
                leaves.append(current)
        elif isinstance(current, PTHole):
            parts.append(f"${current.item.name}")
            leaves.append(current)
            pure = False
    return parts, leaves, pure


def _analyze_qname(node: PTNode, parent: Optional[PTNode], binders, registry) -> None:
    parts, leaves, pure = _qname_chain(node)
    if not pure or not parts:
        return
    context = parent.production.tag if parent is not None else None
    parent_lhs = parent.production.lhs.name if parent is not None else None

    if parent_lhs == "TypeName":
        resolved = registry.resolve(tuple(parts))
        if resolved is None:
            raise HygieneError(
                f"{node.location}: template type name "
                f"{'.'.join(parts)} does not resolve at template-definition "
                f"time (referential transparency)"
            )
        parent.meta["strict_type"] = resolved
        return

    check_parts = parts
    if parent_lhs == "MethodName" and len(parts) == 1:
        # An unqualified call: the name is a method selector, resolved
        # against the enclosing class at the expansion site.
        return
    if parent_lhs == "MethodName":
        check_parts = parts[:-1]

    if check_parts and check_parts[0] in binders:
        leaves[0].meta["rename"] = True
        return

    for k in range(len(check_parts), 0, -1):
        resolved = registry.resolve(tuple(check_parts[:k]))
        if resolved is not None:
            node.meta["class_prefix"] = (resolved, k)
            return

    raise HygieneError(
        f"{node.location}: template refers to free variable "
        f"{check_parts[0]!r} (unquote a Reference, or bind it in the "
        f"template)"
    )
