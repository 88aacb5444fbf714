"""The MultiJava metaprogram: grammar extensions, Mayans, and hooks.

Grammar extensions (paper 5.2):

* external methods — ``Declaration`` gains::

      list(Modifier) TypeName QName \\. Identifier (FormalList) Throws
      lazy(BraceTree, BlockStmts)

* parameter specializers — ``Formal`` gains::

      list(Modifier) TypeName \\@ TypeName UnboundLocal

Translation happens in two steps, as in the paper: Mayans annotate and
collect declarations while the parser runs, and the class-shaper hook
assembles generic functions, enforces MultiJava's checks, renames the
implementations to ``name$implK``, and adds the figure-8 dispatcher
method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ast import nodes as n
from repro.dispatch import Mayan, MetaProgram
from repro.obs import lazy as obs_lazy
from repro.javalang import node_symbol
from repro.typecheck import Scope, check_block, resolve_type_name
from repro.types import ClassType, VOID
from repro.multijava.genericfn import GenericFunction, MultiJavaError, MultiMethod
from repro.multijava.supersend import SuperSend


class SpecializedFormal(Mayan):
    """Builds a Formal carrying its ``@`` specializer."""

    result = "Formal"
    pattern = (
        "list(Modifier) mods TypeName base \\@ TypeName spec "
        "UnboundLocal name"
    )

    def expand(self, ctx, mods, base, spec, name):
        formal = n.Formal(mods, base, name, location=base.location)
        formal.specializer_name = spec
        return formal


class ExternalMethodDecl(n.Declaration):
    """Marker node for a parsed external (open-class) method."""

    _fields = ("modifiers", "return_type", "receiver", "name", "formals",
               "throws", "body")


class ExternalMethod(Mayan):
    """Collects external method declarations for the unit hook."""

    result = "Declaration"
    pattern = (
        "list(Modifier) mods TypeName ret QName receiver \\. Identifier "
        "name (FormalList formalsTok) Throws thr "
        "lazy(BraceTree, BlockStmts) body"
    )

    def __init__(self, owner: "MultiJava"):
        super().__init__()
        self.owner = owner

    def expand(self, ctx, mods, ret, receiver, name, formalsTok, thr, body):
        formals = formalsTok
        if not isinstance(formals, list):
            formals = ctx.parse_subtree(formalsTok, node_symbol("FormalList"))
        decl = ExternalMethodDecl(mods, ret, receiver, n.Ident(name.text),
                                  formals, thr, body, location=ctx.location)
        self.owner.pending_externals.append((decl, ctx.env))
        return decl


class MultiJava(MetaProgram):
    """``use multijava.MultiJava;`` enables open classes and
    multimethods for the rest of the compilation unit."""

    EXTERNAL_PRODUCTION = (
        "list(Modifier) TypeName QName \\. Identifier (FormalList) Throws "
        "lazy(BraceTree, BlockStmts)"
    )
    FORMAL_PRODUCTION = (
        "list(Modifier) TypeName \\@ TypeName UnboundLocal"
    )

    def __init__(self):
        self.pending_externals: List[Tuple[ExternalMethodDecl, object]] = []
        self.generic_functions: Dict[Tuple[str, str], GenericFunction] = {}

    def run(self, env) -> None:
        env.add_production("Declaration", self.EXTERNAL_PRODUCTION,
                           tag="mj_external")
        env.add_production("Formal", self.FORMAL_PRODUCTION,
                           tag="mj_formal")
        SpecializedFormal().run(env)
        ExternalMethod(self).run(env)
        if self._hook not in env.class_hooks:
            env.class_hooks.append(self._hook)
        if self._unit_hook not in env.unit_hooks:
            env.unit_hooks.append(self._unit_hook)

    # ------------------------------------------------------------------
    # Class hook: multimethods declared inside class bodies.
    # ------------------------------------------------------------------

    def _hook(self, item, env) -> None:
        from repro.core import CompileContext

        klass: ClassType = item.type
        groups: Dict[Tuple[str, Tuple[str, ...]], List[n.MethodDecl]] = {}
        for member in item.decl.members:
            if not isinstance(member, n.MethodDecl):
                continue
            base_types = tuple(
                str(formal.type_name) for formal in member.formals
            )
            groups.setdefault((member.name.name, base_types), []).append(member)

        ctx = CompileContext(env)
        for (name, _), members in groups.items():
            specialized = [
                m for m in members
                if any(hasattr(f, "specializer_name") for f in m.formals)
            ]
            if not specialized:
                continue
            self._assemble(ctx, klass, item.decl, name, members, env)

    def _assemble(self, ctx, klass: ClassType, class_decl, name: str,
                  members: List[n.MethodDecl], env) -> None:
        scope = Scope(env=env)
        first = members[0]
        param_types = [
            self._resolve(f.type_name, scope) for f in first.formals
        ]
        return_type = self._resolve(first.return_type, scope)
        gf = GenericFunction(klass, name, param_types, return_type)
        self.generic_functions[(klass.name, name)] = gf

        # Remove the colliding shaped methods; redeclare as impls.
        for existing in list(klass.methods.get(name, ())):
            if len(existing.param_types) == len(param_types):
                klass.remove_method(existing)

        for index, member in enumerate(members):
            specializers = []
            impl_param_types = []
            for formal in member.formals:
                spec_name = getattr(formal, "specializer_name", None)
                base = self._resolve(formal.type_name, scope)
                if spec_name is None:
                    specializers.append(None)
                    impl_param_types.append(base)
                else:
                    spec = self._resolve(spec_name, scope)
                    specializers.append(spec)
                    impl_param_types.append(spec)
                    # Inside the body the parameter has the specializer
                    # type (MultiJava's semantics).
                    formal.type_name = n.StrictTypeName.make(spec)
            impl_name = f"{name}$impl{index + 1}"
            member.name = n.Ident(impl_name, location=member.name.location)
            member.modifiers = ["private"] + [
                m for m in member.modifiers if m not in ("public", "protected")
            ]
            method = klass.declare_method(
                impl_name, impl_param_types, return_type,
                member.modifiers, decl=member,
            )
            member.method = method
            multimethod = MultiMethod(member, klass, param_types,
                                      specializers, impl_name)
            gf.add(multimethod)
            self._wire_super_sends(ctx, member, gf, multimethod, env)

        gf.check()
        dispatcher = self._make_dispatcher(ctx, gf)
        class_decl.members.append(dispatcher)
        method = klass.declare_method(
            name, param_types, return_type, ("public",), decl=dispatcher,
        )
        dispatcher.method = method

    def _wire_super_sends(self, ctx, member: n.MethodDecl,
                          gf: GenericFunction, multimethod: MultiMethod,
                          env) -> None:
        """Scope a method-local SuperSend Mayan over the body — "the
        actual translation of super sends is performed by a
        method-local Mayan defined in MultiMethod" (paper 5.2)."""
        if not isinstance(member.body, n.LazyNode):
            return
        child_env = env.child()
        SuperSend(gf, multimethod).run(child_env)
        member.body = ctx.with_env(child_env).rescope_lazy(
            member.body, child_env
        )

    def _make_dispatcher(self, ctx, gf: GenericFunction) -> n.MethodDecl:
        formal_names = [f"arg{i}" for i in range(len(gf.param_types))]
        formals = [
            n.Formal([], n.StrictTypeName.make(t), n.Ident(name))
            for t, name in zip(gf.param_types, formal_names)
        ]
        body_expr = gf.dispatch_expr(ctx, formal_names)
        if gf.return_type is VOID:
            stmts = [n.ExprStmt(body_expr), n.ReturnStmt(None)]
        else:
            stmts = [n.ReturnStmt(body_expr)]
        return n.MethodDecl(
            ["public"],
            n.StrictTypeName.make(gf.return_type),
            n.Ident(gf.name),
            formals,
            [],
            n.BlockStmts(stmts),
        )

    # ------------------------------------------------------------------
    # Unit hook: external (open-class) methods.
    # ------------------------------------------------------------------

    def _unit_hook(self, program, unit, env) -> None:
        from repro.core import CompileContext

        if not self.pending_externals:
            return
        pending = self.pending_externals
        self.pending_externals = []
        ctx = CompileContext(env)
        scope = Scope(env=env)

        groups: Dict[Tuple[str, str, int], List] = {}
        for decl, decl_env in pending:
            receiver = env.registry.resolve(
                decl.receiver.parts, env.imports, env.package
            )
            if receiver is None:
                raise MultiJavaError(
                    f"{decl.location}: unknown receiver class "
                    f"{'.'.join(decl.receiver.parts)}"
                )
            key = (receiver.name, decl.name.name, len(decl.formals))
            groups.setdefault(key, []).append((decl, receiver))

        for (_, name, _), entries in groups.items():
            receiver = entries[0][1]
            self._assemble_external(ctx, receiver, name, entries, env,
                                    program)

    def _assemble_external(self, ctx, klass: ClassType, name: str,
                           entries, env, program) -> None:
        scope = Scope(env=env)
        first = entries[0][0]
        param_types = [self._resolve(f.type_name, scope) for f in first.formals]
        return_type = self._resolve(first.return_type, scope)
        gf = GenericFunction(klass, name, param_types, return_type)
        self.generic_functions[(klass.name, name)] = gf

        compiled_members: List[n.MethodDecl] = []
        for index, (decl, _) in enumerate(entries):
            specializers = []
            impl_param_types = []
            for formal in decl.formals:
                spec_name = getattr(formal, "specializer_name", None)
                base = self._resolve(formal.type_name, scope)
                if spec_name is None:
                    specializers.append(None)
                    impl_param_types.append(base)
                else:
                    spec = self._resolve(spec_name, scope)
                    specializers.append(spec)
                    impl_param_types.append(spec)
                    formal.type_name = n.StrictTypeName.make(spec)
            impl_name = f"{name}$ext{index + 1}"
            member = n.MethodDecl(
                ["public"], decl.return_type, n.Ident(impl_name),
                decl.formals, decl.throws, decl.body,
                location=decl.location,
            )
            method = klass.declare_method(
                impl_name, impl_param_types, return_type, ("public",),
                decl=member,
            )
            member.method = method
            multimethod = MultiMethod(member, klass, param_types,
                                      specializers, impl_name, external=True)
            gf.add(multimethod)
            self._wire_super_sends(ctx, member, gf, multimethod, env)
            compiled_members.append(member)

        gf.check()
        dispatcher = self._make_dispatcher(ctx, gf)
        method = klass.declare_method(
            name, param_types, return_type, ("public",), decl=dispatcher,
        )
        dispatcher.method = method
        compiled_members.append(dispatcher)

        # Make the moved methods visible in the receiver's source form;
        # a receiver with none (a built-in, or a class compiled
        # earlier) leaves them to the program.
        if klass.decl is not None:
            klass.decl.members.extend(compiled_members)
        else:
            for member in compiled_members:
                program.adopt(member)

        # Compile the bodies now (the receiver may not be a class of
        # this unit — open classes extend anything in the registry).
        root = Scope(env=env)
        class_scope = root.class_scope(klass)
        for member in compiled_members:
            method_scope = class_scope.method_scope(
                klass, False, member.method.return_type
            )
            for formal, param_type in zip(member.formals,
                                          member.method.param_types):
                formal.scope = method_scope
                method_scope.define(formal.name.name, param_type, "param")
            body = member.body
            if isinstance(body, n.LazyNode):
                obs_lazy.thunk_forcing(body)
                body = body.force(method_scope)
                member.body = body
            if isinstance(body, n.BlockStmts):
                check_block(body, method_scope)

    # ------------------------------------------------------------------

    @staticmethod
    def _resolve(type_name: n.TypeName, scope: Scope):
        if type_name.scope is None:
            type_name.scope = scope
        return resolve_type_name(type_name, scope)


def install_multijava(compiler) -> MultiJava:
    """Register MultiJava with a compiler; returns the metaprogram."""
    metaprogram = MultiJava()
    compiler.provide("multijava.MultiJava", metaprogram)
    return metaprogram
