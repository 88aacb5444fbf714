"""mayac: the compiler pipeline.

``MayaCompiler.compile`` runs the three stages of figure 4:

1. **file reader** — stream-lex and parse the compilation unit,
   declaration at a time (method bodies stay lazy);
2. **class shaper** — create ClassTypes, resolve supertypes, declare
   member signatures (so forward references work), and run
   class-processing hooks;
3. **class compiler** — force method bodies (running Mayans as the
   parser reduces them) and type-check statements.

Compiling extensions and applications with the same compiler instance
reproduces the paper's figure-1 workflow: compiled extensions are
``provide``d under a name and imported by applications with ``use``.
"""

from __future__ import annotations

import functools
import sys
import weakref
from typing import Callable, Dict, List, Mapping, Optional

from repro import trace
from repro.obs import lazy as obs_lazy
from repro.ast import nodes as n
from repro.ast import to_source
from repro.diag import CompileFailed, DiagnosticError
from repro.lexer import stream_lex
from repro.typecheck import CheckError, Scope, check_block, resolve_type_name
from repro.types import ClassType, VOID, array_of
from repro.core.context import CompileContext
from repro.core.drivers import parse_compilation_unit
from repro.core.env import CompileEnv, MayaError

#: Deep Mayan expansions and interpreter calls consume many Python
#: frames per level; a roomy recursion limit keeps the *diagnostic*
#: guard rails (fuel, call-depth budgets) tripping first, so users see
#: a located error instead of a Python RecursionError.
_RECURSION_LIMIT = 10_000


def configuration(options: Mapping) -> dict:
    """The compile configuration ``options`` selects: the keys
    :meth:`MayaCompiler.configure` reads plus ``provenance``, with
    defaults filled in and other keys dropped.  The module cache keys
    on it."""
    return {
        "no_macros": bool(options.get("no_macros")),
        "multijava": bool(options.get("multijava")),
        "use": [str(name) for name in options.get("use") or ()],
        "provenance": bool(options.get("provenance")),
    }


class CompiledClass:
    """A source class after shaping and compilation."""

    def __init__(self, decl: n.ClassDecl, class_type: ClassType):
        self.decl = decl
        self.type = class_type


class CompiledProgram:
    """The result of compiling one or more compilation units."""

    def __init__(self, env: CompileEnv):
        self.env = env
        self.units: List[n.CompilationUnit] = []
        self.classes: Dict[str, CompiledClass] = {}
        #: Declarations that no unit holds, kept alive by the program
        #: (see :meth:`adopt`).
        self.adopted: List[n.Node] = []

    def adopt(self, decl: n.Node) -> None:
        """Own ``decl``, a declaration added to a class that no unit of
        this program declares (an open-class method on a class from an
        earlier compilation, a hand-built dispatcher).  Types refer to
        their declarations weakly, so without an owner it would die."""
        self.adopted.append(decl)

    def source(self, provenance: bool = False) -> str:
        """Unparse everything (fully expanded syntax); ``provenance``
        annotates generated statements with their origin."""
        return "\n\n".join(to_source(unit, provenance=provenance)
                           for unit in self.units)

    def class_named(self, name: str) -> CompiledClass:
        if name in self.classes:
            return self.classes[name]
        for compiled in self.classes.values():
            if compiled.type.simple_name == name:
                return compiled
        raise MayaError(f"no compiled class {name!r}")


class MayaCompiler:
    """The Maya compiler (mayac).

    >>> compiler = MayaCompiler()
    >>> program = compiler.compile("class Hello { }")
    """

    def __init__(self, env: Optional[CompileEnv] = None):
        self.env = env if env is not None else CompileEnv()
        self.program = CompiledProgram(self.env)

    # -- metaprogram management (figure 1: compiled extensions) -----------

    def provide(self, name: str, metaprogram) -> None:
        self.env.provide(name, metaprogram)

    def use(self, *names: str) -> None:
        """Import metaprograms compiler-wide (the ``-use`` option)."""
        for name in names:
            self.env.find_metaprogram(name.split(".")).run(self.env)

    def configure(self, options: Mapping) -> "MayaCompiler":
        """Configure this compiler from ``options``, the one place
        mayac, mayad and the module builder do: the ``maya.util``
        library unless ``no_macros``, MultiJava if ``multijava``, then
        each ``use`` (an unknown name raises :class:`MayaError`)."""
        # Installers are looked up on their modules at call time, so a
        # wrapper set on the module attribute (a layer timer) sees them.
        from repro import macros

        config = configuration(options)
        if not config["no_macros"]:
            macros.install_macro_library(self)
        if config["multijava"]:
            from repro import multijava

            multijava.install_multijava(self)
        self.use(*config["use"])
        return self

    # -- compilation ---------------------------------------------------------

    def compile(self, source: str, filename: str = "<string>") -> CompiledProgram:
        unit_env = self.env.child()
        unit_env.imports = list(self.env.imports)
        return self.compile_unit(source, filename, unit_env)

    def compile_unit(self, source: str, filename: str,
                     unit_env: CompileEnv,
                     unit_sink: Optional[list] = None) -> CompiledProgram:
        """Compile one translation unit in a caller-built environment.

        The module builder uses this to give each module its own child
        env (own grammar copy carrying that module's import-replayed
        syntax extensions, own import list) while every unit still
        accumulates into the shared program/registry.

        ``unit_sink``, when given, receives the parsed unit; unlike
        ``program.units[-1]`` it is caller-local, so race-free.

        Fresh names restart at every unit: hygiene needs them unique
        only within one, and identical units then expand to identical
        bytes whatever this thread compiled before."""
        # Imported here: loading repro.hygiene before repro.patterns is
        # circular (hygiene.analysis -> patterns.templates -> back).
        from repro.hygiene.fresh import reset_fresh_names

        reset_fresh_names()
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        engine = unit_env.diag
        mark = engine.mark()
        engine.add_source(filename, source)
        ctx = CompileContext(unit_env)

        try:
            with trace.span("compile", filename, filename=filename):
                with trace.phase("lex"):
                    tokens = stream_lex(source, filename)
                with trace.phase("parse+expand"):
                    unit = parse_compilation_unit(ctx, tokens)
                self.program.units.append(unit)
                if unit_sink is not None:
                    unit_sink.append(unit)
                self._admit(unit, unit_env, mark)
        except CompileFailed:
            raise
        except DiagnosticError as error:
            # A phase that doesn't recover internally failed outright:
            # fold it into the stream and report everything together.
            engine.absorb(error)
        self._raise_pending(engine, mark)
        return self.program

    def _admit(self, unit: n.CompilationUnit, unit_env: CompileEnv,
               mark: int, on_body_error: Optional[Callable] = None
               ) -> List[CompiledClass]:
        """Phases 2 and 3 for a parsed unit: shape its type
        declarations, run the unit hooks, then compile the bodies."""
        type_decls = [
            decl for decl in unit.types
            if isinstance(decl, (n.ClassDecl, n.InterfaceDecl))
        ]
        with trace.phase("shape"):
            compiled = self._shape(type_decls, unit_env)
        for hook in unit_env.unit_hooks:
            hook(self.program, unit, unit_env)
        # Parse/shape errors poison downstream phases wholesale, so
        # report what was collected before compiling bodies.
        self._raise_pending(unit_env.diag, mark)
        with trace.phase("bodies+check"):
            self._compile_bodies(compiled, unit_env, on_body_error)
        return compiled

    @staticmethod
    def _raise_pending(engine, mark: int) -> None:
        """Report the compile's collected errors, if any.

        A single recorded error re-raises its original exception (the
        precise phase type callers have always caught); two or more
        aggregate into one CompileFailed carrying every diagnostic.
        """
        errors = engine.errors_since(mark)
        if not errors:
            return
        if len(errors) == 1 and errors[0].cause is not None:
            raise errors[0].cause
        raise CompileFailed(engine.diagnostics[mark:], engine)

    def compile_checked_unit(self, unit: n.CompilationUnit, filename: str,
                             unit_env: CompileEnv, source: str,
                             on_body_error: Optional[Callable] = None
                             ) -> List[CompiledClass]:
        """Admit an already-parsed unit: shape and check, no parsing.

        The module builder's warm path restores a previously checked
        AST from the cache and re-runs only phases 2 and 3 — lexing,
        parsing, and Mayan expansion are skipped outright (expansion
        already happened; the restored tree is the expanded tree).
        Phase 3 is itself lazy here: fields and constructors are
        checked now, but each :class:`~repro.ast.nodes.RestoredBody`
        is only given the method scope it will be checked in when the
        program first calls it (see :func:`_check_restored`), and
        ``on_body_error(error)`` then hears about a body that fails.
        ``source`` is the unit's text, for diagnostic rendering.  A
        unit that fails leaves nothing behind: it joins
        ``program.units`` only on success, and its diagnostics leave
        the engine with the raised error.

        Returns the unit's :class:`CompiledClass` list.
        """
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        engine = unit_env.diag
        mark = engine.mark()
        engine.add_source(filename, source)
        try:
            with trace.span("compile", filename, filename=filename,
                            restored=True):
                # Mirror what parsing would have recorded on the env
                # (see the package/import handling in the unit driver).
                if unit.package is not None:
                    unit_env.package = ".".join(unit.package.parts)
                for decl in unit.imports:
                    unit_env.imports.append((tuple(decl.parts),
                                             decl.on_demand))
                compiled = self._admit(unit, unit_env, mark, on_body_error)
            self._raise_pending(engine, mark)
        except DiagnosticError:
            del engine.diagnostics[mark:]
            raise
        self.program.units.append(unit)
        return compiled

    def compile_expression(self, source: str):
        """Parse (and expand) a single expression — REPL-style helper."""
        from repro.lalr import Parser

        ctx = CompileContext(self.env.child())
        tokens = stream_lex(source, "<expr>")
        parser = Parser(ctx.env.tables(), ctx)
        value, _ = parser.parse("Expression", tokens)
        return value

    # -- phase 2: the class shaper ---------------------------------------------

    def _shape(self, decls: List, env: CompileEnv) -> List[CompiledClass]:
        registry = env.registry
        compiled: List[CompiledClass] = []

        # Pass 1: names exist (forward references resolve).
        for decl in decls:
            qualified = decl.name.name if not env.package \
                else f"{env.package}.{decl.name.name}"
            class_type = ClassType(
                qualified,
                is_interface=isinstance(decl, n.InterfaceDecl),
                modifiers=tuple(decl.modifiers),
            )
            class_type.decl = decl
            registry.define(class_type)
            compiled.append(CompiledClass(decl, class_type))
            self.program.classes[qualified] = compiled[-1]

        object_type = registry.require("java.lang.Object")

        # Pass 2: supertypes and member signatures.
        for item in compiled:
            decl, class_type = item.decl, item.type
            if isinstance(decl, n.ClassDecl):
                if decl.superclass is not None:
                    class_type.superclass = self._class_of(decl.superclass, env)
                else:
                    class_type.superclass = object_type
                for interface in decl.interfaces:
                    class_type.interfaces.append(self._class_of(interface, env))
            else:
                for interface in decl.superinterfaces:
                    class_type.interfaces.append(self._class_of(interface, env))
            self._declare_members(item, env)
            for hook in env.class_hooks:
                hook(item, env)
        return compiled

    def _class_of(self, type_name: n.TypeName, env: CompileEnv) -> ClassType:
        resolved = env.registry.resolve(type_name.base, env.imports, env.package)
        if resolved is None:
            raise MayaError(f"{type_name.location}: unknown type {type_name}")
        return resolved

    def _resolve(self, type_name: n.TypeName, env: CompileEnv):
        scope = Scope(env=env)
        type_name.scope = scope
        return resolve_type_name(type_name, scope)

    def _declare_members(self, item: CompiledClass, env: CompileEnv) -> None:
        class_type = item.type
        for member in item.decl.members:
            if isinstance(member, n.FieldDecl):
                base = self._resolve(member.type_name, env)
                for declarator in member.declarators:
                    field_type = array_of(base, declarator.dims) \
                        if declarator.dims else base
                    class_type.declare_field(
                        declarator.name.name, field_type, member.modifiers
                    )
            elif isinstance(member, n.MethodDecl):
                return_type = self._resolve(member.return_type, env)
                param_types = [self._formal_type(f, env) for f in member.formals]
                modifiers = list(member.modifiers)
                if class_type.is_interface and "abstract" not in modifiers:
                    modifiers.append("abstract")
                method = class_type.declare_method(
                    member.name.name, param_types, return_type, modifiers,
                    decl=member,
                )
                member.method = method
            elif isinstance(member, n.ConstructorDecl):
                if member.name.name != class_type.simple_name:
                    raise MayaError(
                        f"{member.location}: constructor name "
                        f"{member.name.name} does not match class"
                    )
                param_types = [self._formal_type(f, env) for f in member.formals]
                ctor = class_type.declare_constructor(
                    param_types, member.modifiers, decl=member
                )
                member.method = ctor
            elif isinstance(member, n.UseDecl):
                continue
            else:
                raise MayaError(
                    f"{member.location}: unsupported member "
                    f"{type(member).__name__}"
                )

    def _formal_type(self, formal: n.Formal, env: CompileEnv):
        return self._resolve(formal.type_name, env)

    # -- phase 3: the class compiler -------------------------------------------

    def _compile_bodies(self, compiled: List[CompiledClass], env: CompileEnv,
                        on_body_error: Optional[Callable] = None) -> None:
        from repro.typecheck import check_statement

        for item in compiled:
            class_type = item.type
            root = Scope(env=env)
            class_scope = root.class_scope(class_type)
            for member in item.decl.members:
                env.diag.check_deadline()
                try:
                    if isinstance(member, n.FieldDecl):
                        # Check field initializers as pseudo-declarations in
                        # the class scope (static ones without ``this``).
                        scope = class_scope.child()
                        if "static" in member.modifiers:
                            scope.this_type = None
                            scope.static_context = True
                        check_statement(
                            n.LocalVarDecl(list(member.modifiers),
                                           member.type_name, member.declarators),
                            scope,
                        )
                    elif isinstance(getattr(member, "body", None),
                                    n.RestoredBody):
                        # Checked when its module compiled; checked
                        # again only if the program calls it.  The
                        # member owns the body, which owns this thunk,
                        # so the thunk refers back to it weakly.
                        member.body._parse = functools.partial(
                            _check_restored, weakref.ref(member),
                            class_scope, class_type, on_body_error)
                        obs_lazy.thunk_created(member.body)
                    elif isinstance(member, n.MethodDecl) and member.body is not None:
                        method = member.method
                        scope = class_scope.method_scope(
                            class_type, method.is_static, method.return_type
                        )
                        self._bind_formals(member.formals, method.param_types,
                                           scope)
                        member.body = self._force_body(member.body, scope)
                    elif isinstance(member, n.ConstructorDecl):
                        scope = class_scope.method_scope(class_type, False, VOID)
                        self._bind_formals(member.formals,
                                           member.method.param_types, scope)
                        member.body = self._force_body(member.body, scope)
                except DiagnosticError as error:
                    # A failed member body doesn't hide its siblings:
                    # record the diagnostic and move on (until the
                    # --max-errors budget runs out).
                    fresh = not getattr(error, "_diag_absorbed", False)
                    if not env.diag.try_absorb(error):
                        raise
                    if fresh:
                        member_name = getattr(
                            getattr(member, "name", None), "name", None
                        )
                        where = class_type.simple_name + (
                            f".{member_name}" if member_name else ""
                        )
                        error.diagnostic.with_note(f"while compiling {where}")

    @staticmethod
    def _bind_formals(formals, param_types, scope: Scope) -> None:
        for formal, param_type in zip(formals, param_types):
            formal.scope = scope
            scope.define(formal.name.name, param_type, "param")

    def _force_body(self, body, scope: Scope):
        if isinstance(body, n.LazyNode):
            obs_lazy.thunk_forcing(body)
            body = body.force(scope)
        if isinstance(body, n.BlockStmts):
            check_block(body, scope)
        return body


def _check_restored(member_ref: Callable[[], n.MethodDecl],
                    class_scope: Scope, class_type: ClassType,
                    on_error: Optional[Callable], _scope=None):
    """Force a restored method body (the body of the member that
    ``member_ref`` refers to, which is forcing it): decode it and check
    it in the method scope the eager path builds.  A blob that does not
    decode or a body that does not check raises a diagnostic located
    at the method, after ``on_error`` (if any) has seen it."""
    member = member_ref()
    where = f"{class_type.simple_name}.{member.name.name}"
    try:
        tree = member.body.view()
        method = member.method
        scope = class_scope.method_scope(class_type, method.is_static,
                                         method.return_type)
        MayaCompiler._bind_formals(member.formals, method.param_types,
                                   scope)
        engine = scope.env.diag
        mark = engine.mark()
        check_block(tree, scope)
        MayaCompiler._raise_pending(engine, mark)
    except DiagnosticError as error:
        failure = error
        if getattr(error, "location", None) is None:
            failure = MayaError(f"cannot restore the body of {where}: "
                                f"{error}", location=member.location)
        failure.diagnostic.with_note(f"while compiling {where}")
        if on_error is not None:
            on_error(failure)
        raise failure from None
    return tree
