"""The compile context: the parse driver's program sink.

One context = one (environment, scope) pair.  It runs internal
actions, routes every other reduction to the dispatcher, recursively
parses subtree tokens (eagerly or lazily), and is what Mayan bodies
receive (wrapped in MayanCtx) — so it also carries the convenience API
metaprograms use: template instantiation, scope access, fresh names.
"""

from __future__ import annotations

from typing import Optional

from repro.ast import nodes as n
from repro.grammar import Nonterminal, Production
from repro.lalr import Parser, ParserContext
from repro.lexer import Location, Token
from repro.obs import lazy as obs_lazy
from repro.typecheck import Scope
from repro.core.env import CompileEnv, MayaError


class CompileContext(ParserContext):
    """Parsing/expansion context for one environment and scope."""

    def __init__(self, env: CompileEnv, scope: Optional[Scope] = None):
        self.env = env
        self.scope = scope if scope is not None else Scope(env=env)
        # The dispatcher tree's provenance stack, cached so reduce()
        # pays one truthiness check per reduction when no expansion is
        # active (the common case).
        self._origins = env.dispatcher.root.origin_stack

    # -- derived contexts ------------------------------------------------

    def with_env(self, env: CompileEnv) -> "CompileContext":
        return CompileContext(env, self.scope)

    def with_scope(self, scope: Scope) -> "CompileContext":
        return CompileContext(self.env, scope)

    def child_scope(self) -> "CompileContext":
        return CompileContext(self.env, self.scope.child())

    # -- ParserContext ------------------------------------------------------

    def reduce(self, production: Production, values, location: Location):
        if production.internal:
            return production.action(self, values)
        value = self.env.dispatcher.dispatch(production, values, location, self)
        if isinstance(value, n.Node):
            if value.syntax is None:
                # A value that passes one of its children through (a
                # unit production, a Mayan returning an operand)
                # records no syntax: the record would contain the node
                # itself.
                for child in values:
                    if child is value:
                        break
                else:
                    value.syntax = (production, tuple(values))
            if value.scope is None:
                value.scope = self.scope
            if value.location is Location.UNKNOWN:
                value.location = location
            # Provenance: anything reduced while a Mayan activation is
            # live was produced by that expansion.
            if self._origins and value.origin is None:
                value.origin = self._origins[-1]
        return value

    def skips_units(self, productions, value) -> bool:
        # reduce() would stamp nothing on this value ...
        if isinstance(value, n.Node) and (
                value.syntax is None or value.scope is None
                or value.location is Location.UNKNOWN
                or (self._origins and value.origin is None)):
            return False
        # ... and every dispatch on the chain would take the identity.
        return self.env.dispatcher.skip_units(productions)

    def parse_subtree(self, tree, content_symbol):
        from repro.patterns.templates import PseudoToken

        if isinstance(tree, PseudoToken):
            return tree.value
        name = content_symbol.name if isinstance(content_symbol, Nonterminal) \
            else str(content_symbol)
        tokens = tree.children if tree.children is not None else ()
        if name == "BlockStmts":
            from repro.core.drivers import parse_block_stmts

            return parse_block_stmts(self.child_scope(), list(tokens))
        if name == "MemberList":
            from repro.core.drivers import parse_members

            return parse_members(self, list(tokens))
        parser = Parser(self.env.tables(), self)
        value, _ = parser.parse(name, list(tokens))
        return value

    def lazy_subtree(self, tree, content_symbol):
        from repro.patterns.templates import PseudoToken

        if isinstance(tree, PseudoToken):
            return tree.value
        lazy = n.LazyNode(tree, content_symbol, location=tree.location)
        env = self.env  # captured: the parse environment at creation

        def parse(scope):
            ctx = CompileContext(env, scope if scope is not None else self.scope)
            return ctx.parse_subtree(tree, content_symbol)

        lazy._parse = parse
        return obs_lazy.thunk_created(lazy)

    # -- use handling -----------------------------------------------------------

    def make_use_statement(self, parts, location: Location) -> n.UseStmt:
        metaprogram = self.env.find_metaprogram(parts)
        stmt = n.UseStmt(metaprogram, [], location=location)
        # The block driver fills the body with the following statements;
        # Mayan-built UseStmts (ctx.use_in) are already complete.
        stmt.pending = True
        return stmt

    def make_use_member(self, parts, location: Location):
        metaprogram = self.env.find_metaprogram(parts)
        marker = n.UseDecl(tuple(parts), location=location)
        marker.metaprogram = metaprogram
        return marker

    # -- services for Mayan bodies -------------------------------------------

    @property
    def registry(self):
        return self.env.registry

    def declare_local(self, decl: n.LocalVarDecl) -> None:
        """Bind a local declaration into the current scope (used by the
        block driver so later statements see earlier declarations)."""
        from repro.typecheck import resolve_type_name
        from repro.types import array_of

        if decl.type_name.scope is None:
            decl.type_name.scope = self.scope
        declared = resolve_type_name(decl.type_name, self.scope)
        for ident, dims, _ in decl.bindings():
            var_type = array_of(declared, dims) if dims else declared
            self.scope.define(ident.name, var_type, "local")

    def instantiate(self, template, **values):
        """Instantiate a Template in this context."""
        return template.instantiate(self, **values)

    def use_in(self, metaprogram, lazy_node: n.LazyNode) -> n.UseStmt:
        """Scope a metaprogram over a lazy body: build a UseStmt whose
        body parses in a child environment with the metaprogram imported
        (how Typedef exposes its local Subst Mayan, paper figure 3)."""
        child_env = self.env.child()
        metaprogram.run(child_env)
        rebound = self.rescope_lazy(lazy_node, child_env)
        return n.UseStmt(metaprogram, [rebound])

    def rescope_lazy(self, lazy_node: n.LazyNode, env: CompileEnv) -> n.LazyNode:
        """A copy of a lazy node that will parse under another environment."""
        if lazy_node.tree_token is None:
            return lazy_node  # template-made thunk; already scoped
        rebound = n.LazyNode(lazy_node.tree_token, lazy_node.symbol,
                             location=lazy_node.location)

        def parse(scope, _tree=lazy_node.tree_token,
                  _symbol=lazy_node.symbol, _env=env):
            ctx = CompileContext(_env, scope if scope is not None else self.scope)
            return ctx.parse_subtree(_tree, _symbol)

        rebound._parse = parse
        return obs_lazy.thunk_created(rebound)

    def error(self, message: str, location: Location = Location.UNKNOWN):
        return MayaError(message, location=location)

    def resolve_type(self, name: str):
        """Resolve a dotted type name string against this environment."""
        return self.env.registry.parse_type(name, self.env.imports,
                                            self.env.package)
