"""Templates: Maya's quasiquote (paper sections 3.2, 4.2, 4.3).

A Template is compiled *once* (per grammar) by pattern-parsing its body
— so a syntactically invalid template fails at definition time — and is
instantiated by replaying the recorded shifts and reductions with the
unquoted values substituted.  Reductions go through the dispatcher, so
template output is itself subject to Mayan expansion, exactly as if the
parser had read the generated syntax.

Sub-templates in lazy positions compile to thunks (LazyNodes) expanded
when the corresponding syntax would have been parsed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import trace
from repro.diag import DiagnosticError, SourceSpan
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import CACHE_EVENTS
from repro.ast import nodes as n
from repro.grammar import Symbol
from repro.hygiene.analysis import analyze_template
from repro.hygiene.fresh import fresh_name
from repro.lexer import Location, Token
from repro.lalr.tables import tables_for
from repro.patterns.items import PatternError, lex_template
from repro.patterns.pattern_parser import (
    PatternParseError,
    PatternParser,
    PTGroup,
    PTHole,
    PTLeaf,
    PTNode,
    PTStmts,
)
from repro.store import LRUCache


class TemplateError(DiagnosticError):
    """A template was misused (bad hole value, missing binding, ...)."""

    phase = "expand"


_TEMPLATE_HIT = CACHE_EVENTS.labels("templates.compiled", "hit")
_TEMPLATE_MISS = CACHE_EVENTS.labels("templates.compiled", "miss")


class PseudoToken:
    """A stand-in tree token carrying an already-built value.

    Replay substitutes these where the original parse would have seen a
    ParenTree/BraceTree; the compile context's subtree hooks unwrap
    them instead of re-parsing.
    """

    __slots__ = ("kind", "value", "location")

    is_tree = True
    children = None

    def __init__(self, kind: str, value, location: Location = Location.UNKNOWN):
        self.kind = kind
        self.value = value
        self.location = location

    def source_text(self) -> str:
        return f"<{self.kind}>"


class Template:
    """A compiled, hygienic code template.

    ``result`` is the grammar symbol the template produces; ``holes``
    map unquote names to the grammar symbols of the values that will be
    substituted.

    >>> LOOP = Template("Statement",
    ...     "while ($cond) { $body }",
    ...     cond="Expression", body="BlockStmts")
    """

    def __init__(self, result: str, source: str, **holes: str):
        self.result = result
        self.source = source
        self.hole_names = dict(holes)

    def compiled(self, env) -> "_CompiledTemplate":
        # Memoized on the session's registry, keyed by grammar:
        # referential transparency resolves type names against the
        # registry, and type identity is per registry.  The fingerprint
        # is the grammar's version-cached digest, so this lookup is
        # O(1) per instantiation.
        memo = env.registry.memo
        key = (self, env.grammar.fingerprint())
        compiled = memo.get(key)
        if compiled is None:
            _TEMPLATE_MISS.inc()
            compiled = _CompiledTemplate(self, env)
            memo[key] = compiled
        else:
            _TEMPLATE_HIT.inc()
        return compiled

    def instantiate(self, ctx, **values):
        """Build the AST, renaming binders and substituting holes."""
        return self.compiled(ctx.env).instantiate(ctx, values)

    def __repr__(self):
        preview = " ".join(self.source.split())[:40]
        return f"Template({self.result}, {preview!r})"


class _CompiledTemplate:
    def __init__(self, template: Template, env):
        self.template = template
        holes: Dict[str, Symbol] = {}
        for name, symbol_name in template.hole_names.items():
            symbol = Symbol.lookup(symbol_name) if isinstance(symbol_name, str) \
                else symbol_name
            if symbol is None:
                raise TemplateError(
                    f"unknown grammar symbol {symbol_name!r} for hole ${name}"
                )
            holes[name] = symbol
        items = lex_template(template.source, holes)
        parser = PatternParser(tables_for(env.grammar))
        try:
            self.tree, _ = parser.parse(template.result, items)
        except PatternParseError as error:
            raise error.owned_by(repr(template), "<template>") from None
        self.info = analyze_template(self.tree, env.registry)

    def instantiate(self, ctx, values: Dict[str, object]):
        missing = [
            name for name in self.template.hole_names if name not in values
        ]
        if missing:
            raise TemplateError(
                f"template {self.template!r} missing bindings: {missing}"
            )
        # Binders are renamed in sorted order so the ``name$N`` suffixes
        # are deterministic across processes (set iteration order is
        # hash-randomized), which golden-expansion tests rely on.
        renames = {name: fresh_name(name) for name in sorted(self.info.binders)}

        # Provenance: while the replay reduces the template body, nodes
        # are stamped with the enclosing Mayan activation's origin,
        # refined with this template's name.  Direct API instantiation
        # (no active Mayan) still records the template.
        label = repr(self.template)
        origins = ctx.env.dispatcher.root.origin_stack
        if origins:
            origin = origins[-1].with_template(label)
        else:
            origin = trace.Origin(None, label, SourceSpan())
        replay = _Replay(self, ctx, values, renames, origin)
        origins.append(origin)
        tracer = trace.current()
        span = tracer.begin("template", label, template=label) \
            if tracer is not None else None
        try:
            result = replay.build(self.tree, ctx)
            if span is not None:
                tracer.end(span)
            return result
        except BaseException:
            if span is not None:
                tracer.end(span, error=True)
            raise
        finally:
            origins.pop()


class _Replay:
    """One instantiation: replays the recorded parse with values."""

    def __init__(self, compiled: _CompiledTemplate, ctx, values, renames,
                 origin: Optional[trace.Origin] = None):
        self.compiled = compiled
        self.values = values
        self.renames = renames
        self.origin = origin

    # -- node dispatch ------------------------------------------------------

    def build(self, tree, ctx):
        if isinstance(tree, PTLeaf):
            return self._leaf(tree)
        if isinstance(tree, PTHole):
            return self._hole(tree)
        if isinstance(tree, PTGroup):
            return self._group(tree, ctx)
        if isinstance(tree, PTNode):
            return self._node(tree, ctx)
        if isinstance(tree, PTStmts):
            return self._stmts(tree, ctx)
        raise TypeError(f"bad template tree {tree!r}")

    def _leaf(self, leaf: PTLeaf):
        token = leaf.token
        if leaf.meta.get("binder") or leaf.meta.get("rename"):
            renamed = self.renames.get(token.text)
            if renamed is not None:
                return Token(token.kind, renamed, token.location)
        return token

    def _hole(self, hole: PTHole):
        item = hole.item
        value = self.values.get(item.name)
        if value is None:
            raise TemplateError(f"no value for template hole ${item.name}")
        return _coerce_hole_value(item, value)

    def _group(self, group: PTGroup, ctx):
        if group.content is None:
            raise TemplateError(
                f"{group.group.location}: template group was never resolved"
            )
        if group.lazy:
            lazy = n.LazyNode(None, group.content_symbol,
                              location=group.group.location)
            content = group.content

            def parse(scope, _content=content, _ctx=ctx):
                inner = _ctx.with_scope(scope) if scope is not None else _ctx
                # The thunk forces after instantiate() returned: restore
                # the template's provenance frame around the build.
                origins = inner.env.dispatcher.root.origin_stack
                if self.origin is not None:
                    origins.append(self.origin)
                try:
                    return self.build(_content, inner)
                finally:
                    if self.origin is not None:
                        origins.pop()

            lazy._parse = parse
            return PseudoToken(group.group.kind, obs_lazy.thunk_created(lazy),
                               group.group.location)
        value = self.build(group.content, ctx)
        return PseudoToken(group.group.kind, value, group.group.location)

    def _node(self, node: PTNode, ctx):
        strict = node.meta.get("strict_type")
        if strict is not None:
            return n.StrictTypeName.make(strict)
        children = [self.build(child, ctx) for child in node.children]
        production = node.production
        if production.internal:
            value = production.action(ctx, children)
        else:
            value = ctx.reduce(production, children, node.location)
        prefix = node.meta.get("class_prefix")
        if prefix is not None and isinstance(value, n.NameExpr):
            value.resolution_hint = prefix
        return value

    def _stmts(self, stmts: PTStmts, ctx):
        scope = ctx.scope.child() if ctx.scope is not None else None
        inner = ctx.with_scope(scope) if scope is not None else ctx
        out: List[object] = []
        for element in stmts.elements:
            value = self.build(element, inner)
            if isinstance(value, n.BlockStmts):
                out.extend(value.stmts)
            elif isinstance(value, list):
                out.extend(value)
            else:
                out.append(value)
                if isinstance(value, n.LocalVarDecl) and scope is not None:
                    inner.declare_local(value)
        return n.BlockStmts(out)


def _coerce_hole_value(item, value):
    declared = item.declared
    if declared.is_terminal:
        if declared.name == "Identifier":
            if isinstance(value, n.Ident):
                return Token("Identifier", value.name, value.location)
            if isinstance(value, str):
                return Token("Identifier", value)
            if isinstance(value, Token):
                return value
        raise TemplateError(
            f"hole ${item.name} needs a token-like value, got {value!r}"
        )
    node_class = getattr(declared, "node_class", None)
    if node_class is not None and not isinstance(value, (node_class, n.LazyNode)):
        raise TemplateError(
            f"hole ${item.name} expects {declared.name}, got "
            f"{type(value).__name__}"
        )
    return value


# ---------------------------------------------------------------------------
# syntax case
# ---------------------------------------------------------------------------

#: Compiled ``syntax case`` patterns, keyed by grammar fingerprint,
#: result symbol and pattern text.  A ``use`` scope makes a new
#: fingerprint, so the bound caps a daemon at its working set.
CASE_CACHE_SIZE = 256
_CASE_CACHE = LRUCache(CASE_CACHE_SIZE, "templates.syntax_case")


def syntax_case(ctx, result: str, node, cases):
    """Maya's ``syntax case``: match a node against parameter-list
    patterns; run the first matching case body.

    ``cases`` is a sequence of (pattern source, callable) pairs; the
    callable receives the pattern's bindings as keyword arguments.  A
    trailing (None, callable) pair is the default.  Raises
    TemplateError when nothing matches and no default is given.
    """
    from repro.dispatch.specializers import match_params
    from repro.patterns.params import compile_parameter_list

    env = ctx.env
    tables = tables_for(env.grammar)
    # One version-cached fingerprint for the whole case list (it used
    # to be recomputed — O(grammar) — per case, per invocation).
    fingerprint = env.grammar.fingerprint()
    for pattern, body in cases:
        if pattern is None:
            return body()
        key = (fingerprint, result, pattern)
        compiled = _CASE_CACHE.get(key)
        if compiled is None:
            compiled = compile_parameter_list(tables, result, pattern)
            _CASE_CACHE.put(key, compiled)
        production, params, _ = compiled
        if node.syntax is None or node.syntax[0] is not production:
            continue
        bindings: Dict[str, object] = {}
        if match_params(params, list(node.syntax[1]), env, bindings):
            return body(**bindings)
    raise TemplateError(f"syntax case fell through for {node!r}")
