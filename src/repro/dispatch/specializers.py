"""Mayan parameter specializers: matching and specificity.

A Mayan parameter is a grammar symbol plus an optional secondary
attribute (paper 4.4): substructure, a token value, a static expression
type, or a class-literal type.  Matching binds names to argument
substructure; comparison implements the paper's rules — "static
expression types are compared using subtype relationships; substructure
is compared recursively; class types and token values must match
exactly."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ast import nodes as n
from repro.grammar import Nonterminal, Production, Symbol
from repro.lexer import Token

# Comparison outcomes for a single parameter position.
MORE = 1
EQUAL = 0
LESS = -1
# Crossing: more specific on one sub-position, less on another — the
# paper's symmetric-ambiguity case, signaled as an error at dispatch.
CROSS = 2


class Specializer:
    """Base class for secondary parameter attributes."""


def _resolve(spec, registry):
    """``spec``'s type in ``registry``, memoized on the registry."""
    resolved = registry.memo.get(spec)
    if resolved is None:
        resolved = registry.resolve_type(spec.type_parts, spec.dims)
        registry.memo[spec] = resolved
    return resolved


class TypeSpec(Specializer):
    """Constrains an expression argument's *static* type (subtype test).

    The type name is resolved lazily against the matching environment's
    registry, and memoized on that registry.
    """

    def __init__(self, type_parts: Tuple[str, ...], dims: int = 0):
        self.type_parts = tuple(type_parts)
        self.dims = dims

    def resolve(self, env):
        return _resolve(self, env.registry)

    def __repr__(self):
        return f"TypeSpec({'.'.join(self.type_parts)}{'[]' * self.dims})"


class TokenSpec(Specializer):
    """Constrains a token argument to an exact spelling."""

    def __init__(self, value: str):
        self.value = value

    def __repr__(self):
        return f"TokenSpec({self.value!r})"


class ClassSpec(Specializer):
    """Constrains a TypeName argument to denote an exact class."""

    def __init__(self, type_parts: Tuple[str, ...], dims: int = 0):
        self.type_parts = tuple(type_parts)
        self.dims = dims

    def resolve(self, env):
        return _resolve(self, env.registry)

    def __repr__(self):
        return f"ClassSpec({'.'.join(self.type_parts)})"


class StructSpec(Specializer):
    """Constrains an argument's syntactic structure.

    Matches nodes whose recorded ``syntax`` was built by ``production``,
    then matches each child against ``subparams``.
    """

    def __init__(self, production: Production, subparams: List["Param"]):
        self.production = production
        self.subparams = subparams

    def __repr__(self):
        return f"StructSpec({self.production.tag})"


class GroupSpec(Specializer):
    """Constrains the *parsed contents* of a raw subtree token.

    Base productions keep paren/brace groups as tokens (their actions
    parse them); a pattern that destructures such a group gets a
    GroupSpec, which parses the token on demand during matching —
    letting Mayans dispatch on the static types and structure of
    argument lists.
    """

    def __init__(self, content_symbol, element_params: List["Param"],
                 exact_arity: bool = True):
        self.content_symbol = content_symbol
        self.element_params = element_params
        self.exact_arity = exact_arity

    def __repr__(self):
        return f"GroupSpec({self.content_symbol.name})"


class Param:
    """One Mayan formal parameter (possibly with substructure)."""

    def __init__(self, symbol: Symbol, name: Optional[str] = None,
                 spec: Optional[Specializer] = None):
        self.symbol = symbol
        self.name = name
        self.spec = spec

    def __repr__(self):
        spec = f":{self.spec!r}" if self.spec else ""
        name = f" {self.name}" if self.name else ""
        return f"Param({self.symbol.name}{spec}{name})"


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def match_param(param: Param, value, env, bindings: Dict[str, object]) -> bool:
    """Match one argument against one parameter, collecting bindings."""
    if not _symbol_accepts(param.symbol, value):
        return False
    spec = param.spec
    if spec is not None and not _spec_matches(spec, value, env, bindings):
        return False
    if param.name:
        bindings[param.name] = value
    return True


def match_params(params: List[Param], values, env,
                 bindings: Dict[str, object]) -> bool:
    if len(params) != len(values):
        return False
    return all(
        match_param(param, value, env, bindings)
        for param, value in zip(params, values)
    )


def _symbol_accepts(symbol: Symbol, value) -> bool:
    if symbol.is_terminal:
        return isinstance(value, Token) and (
            value.kind == symbol.name or value.text == symbol.name
        )
    node_class = getattr(symbol, "node_class", None)
    if node_class is not None:
        if isinstance(value, n.LazyNode):
            # A lazy block stands for its (unparsed) content symbol.
            return value.symbol is symbol
        return isinstance(value, node_class)
    # Helper nonterminals (lists, lazy, trees): accept whatever the
    # helper action produced.
    return True


def _spec_matches(spec: Specializer, value, env, bindings) -> bool:
    if isinstance(spec, TokenSpec):
        if isinstance(value, Token):
            return value.text == spec.value
        if isinstance(value, n.Ident):
            return value.name == spec.value
        return False
    if isinstance(spec, TypeSpec):
        if not isinstance(value, n.Expression):
            return False
        from repro.typecheck import static_type_of

        actual = static_type_of(value)
        if actual is None:
            return False
        return actual.is_subtype_of(spec.resolve(env))
    if isinstance(spec, ClassSpec):
        if not isinstance(value, n.TypeName):
            return False
        from repro.typecheck import resolve_type_name

        denoted = resolve_type_name(value, value.scope)
        return denoted is spec.resolve(env)
    if isinstance(spec, StructSpec):
        if not isinstance(value, n.Node) or value.syntax is None:
            return False
        production, children = value.syntax
        if production is not spec.production:
            return False
        return match_params(spec.subparams, children, env, bindings)
    if isinstance(spec, GroupSpec):
        if isinstance(value, Token):
            parse = getattr(env, "parse_subtree", None)
            if parse is None:
                return False
            value = parse(value, spec.content_symbol)
        elements = value if isinstance(value, list) else [value]
        if spec.exact_arity and len(elements) != len(spec.element_params):
            return False
        return match_params(spec.element_params, elements, env, bindings)
    raise TypeError(f"unknown specializer {spec!r}")


# ---------------------------------------------------------------------------
# Specificity
# ---------------------------------------------------------------------------


def compare_params(a: Param, b: Param, env=None) -> int:
    """Compare two parameters at the same position.

    Returns MORE if ``a`` is strictly more specific, LESS if ``b`` is,
    EQUAL otherwise.  Specializers that can never apply to the same
    argument simultaneously (distinct token values, unrelated types)
    compare EQUAL, since the ambiguity cannot arise at dispatch time.
    """
    node_order = _compare_node_classes(a, b)
    if node_order != EQUAL:
        return node_order
    return _compare_specs(a.spec, b.spec, env)


def _effective_node_class(param: Param):
    if isinstance(param.spec, StructSpec):
        lhs = param.spec.production.lhs
        node_class = getattr(lhs, "node_class", None)
        if node_class is not None:
            return node_class
    symbol = param.symbol
    return getattr(symbol, "node_class", None)


def _compare_node_classes(a: Param, b: Param) -> int:
    class_a = _effective_node_class(a)
    class_b = _effective_node_class(b)
    if class_a is None or class_b is None or class_a is class_b:
        return EQUAL
    if issubclass(class_a, class_b):
        return MORE
    if issubclass(class_b, class_a):
        return LESS
    return EQUAL


def _compare_specs(a: Optional[Specializer], b: Optional[Specializer], env) -> int:
    if a is None and b is None:
        return EQUAL
    if b is None:
        return MORE
    if a is None:
        return LESS
    if isinstance(a, StructSpec) and isinstance(b, StructSpec):
        if a.production is not b.production:
            return EQUAL  # cannot co-apply
        return _combine(
            compare_params(sub_a, sub_b, env)
            for sub_a, sub_b in zip(a.subparams, b.subparams)
        )
    if isinstance(a, GroupSpec) and isinstance(b, GroupSpec):
        if (a.content_symbol is not b.content_symbol
                or len(a.element_params) != len(b.element_params)):
            return EQUAL
        return _combine(
            compare_params(sub_a, sub_b, env)
            for sub_a, sub_b in zip(a.element_params, b.element_params)
        )
    if isinstance(a, TypeSpec) and isinstance(b, TypeSpec):
        if a.type_parts == b.type_parts and a.dims == b.dims:
            return EQUAL
        if env is None:
            return EQUAL
        resolved_a = a.resolve(env)
        resolved_b = b.resolve(env)
        if resolved_a.is_subtype_of(resolved_b):
            return MORE
        if resolved_b.is_subtype_of(resolved_a):
            return LESS
        return EQUAL
    # Mixed kinds, token specs, class specs: exact-match semantics, so
    # two *different* specs cannot co-apply; identical ones are equal.
    return EQUAL


def _combine(outcomes) -> int:
    """Fold sub-position comparisons: any crossing poisons the result."""
    combined = EQUAL
    for outcome in outcomes:
        if outcome == CROSS:
            return CROSS
        if outcome == EQUAL:
            continue
        if combined == EQUAL:
            combined = outcome
        elif combined != outcome:
            return CROSS
    return combined
