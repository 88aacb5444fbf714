"""The tree-walking interpreter (and the seam to the pycode backend)."""

from __future__ import annotations

import math
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.ast import nodes as n
from repro.core import CompiledProgram, MayaError
from repro.diag import DiagnosticError
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import REGISTRY
from repro.interp.builtins import BUILTINS, StreamPeer
from repro.interp.values import (
    JavaArray,
    JavaObject,
    JavaThrow,
    default_value,
    java_str,
)
from repro.typecheck import resolve_type_name
from repro.types import (
    BOOLEAN,
    DOUBLE,
    INT,
    NULL,
    ArrayType,
    ClassType,
    Method,
    PrimitiveType,
    Type,
    array_of,
)

#: Operation counts, by kind — bumped by both execution backends at the
#: same observable points, exported via --metrics-out like every other
#: registry family.  Children are bound once here so the hot paths pay
#: a single integer add.
_OPS = REGISTRY.counter(
    "maya_interp_ops_total",
    "Interpreter operations executed, by kind.",
    ("op",))
_C_ALLOCATIONS = _OPS.labels("allocations")
_C_METHOD_CALLS = _OPS.labels("method_calls")
_C_FIELD_READS = _OPS.labels("field_reads")
_C_FIELD_WRITES = _OPS.labels("field_writes")
_C_ARRAY_READS = _OPS.labels("array_reads")
_C_ARRAY_WRITES = _OPS.labels("array_writes")
_C_STATEMENTS = _OPS.labels("statements")

_OP_CHILDREN = {
    "allocations": _C_ALLOCATIONS,
    "method_calls": _C_METHOD_CALLS,
    "field_reads": _C_FIELD_READS,
    "field_writes": _C_FIELD_WRITES,
    "array_reads": _C_ARRAY_READS,
    "array_writes": _C_ARRAY_WRITES,
    "statements": _C_STATEMENTS,
}

#: Lazily imported pycode backend (repro.interp.pycodegen); deferred so
#: walk-only embedders never pay the import and to break the module
#: cycle (pycodegen imports this module's helpers).
_pycodegen = None


class Counters:
    """Operation counters (used by the benchmarks to measure what the
    paper's optimized expansions save).

    Since the telemetry unification this is a per-interpreter *view*
    over the process-wide ``maya_interp_ops_total{op}`` registry family.
    Each view subtracts the baseline captured at construction /
    ``reset()``, so the historical per-interpreter semantics and
    ``snapshot()`` shape are unchanged while ``--metrics-out`` exports
    the same numbers.  The walker bumps the registry children at each
    operation; pycode's plans count into locals and add them at every
    method exit, return or throw.  So the totals are exact whenever no
    Java frame is running, and, under ``max_steps`` (which runs every
    method on the walker), at every statement, where the budget is
    checked.
    """

    __slots__ = ("_base",)

    _fields = ("allocations", "method_calls", "field_reads", "field_writes",
               "array_reads", "array_writes", "statements")

    def __init__(self):
        self._base: Dict[str, int] = {}
        self.reset()

    def reset(self):
        for name, child in _OP_CHILDREN.items():
            self._base[name] = child.value

    def _get(self, name: str) -> int:
        return _OP_CHILDREN[name].value - self._base[name]

    @property
    def allocations(self) -> int:
        return self._get("allocations")

    @property
    def method_calls(self) -> int:
        return self._get("method_calls")

    @property
    def field_reads(self) -> int:
        return self._get("field_reads")

    @property
    def field_writes(self) -> int:
        return self._get("field_writes")

    @property
    def array_reads(self) -> int:
        return self._get("array_reads")

    @property
    def array_writes(self) -> int:
        return self._get("array_writes")

    @property
    def statements(self) -> int:
        return self._get("statements")

    def snapshot(self) -> Dict[str, int]:
        return {name: self._get(name) for name in self._fields}


#: Default Java-level call-depth budget.  Each interpreted call burns a
#: handful of Python frames, so the budget plus the recursion-limit bump
#: below guarantees JavaStackOverflow fires before Python's own
#: RecursionError would.
DEFAULT_MAX_CALL_DEPTH = 256

#: The execution backends ``Interpreter`` accepts, and the one it uses
#: when neither the caller nor ``MAYA_BACKEND`` picks (``mayac`` and
#: ``mayad`` share it).
BACKENDS = ("walk", "pycode")
DEFAULT_BACKEND = "pycode"

_RECURSION_LIMIT = 10_000


class JavaStackOverflow(DiagnosticError):
    """Interpreted Java recursion exceeded the call-depth budget.

    The Java program's runaway recursion, not the host's: catchable by
    embedders and reported as a clean diagnostic by mayac --run."""

    phase = "interp"


class StepLimitExceeded(DiagnosticError):
    """The interpreter's statement budget ran out (infinite-loop guard
    for embedders that set ``max_steps``)."""

    phase = "interp"


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Interpreter:
    """Executes a CompiledProgram.

    ``backend`` selects the execution strategy: ``"pycode"`` (generated
    Python source with specialized call sites, the default; see
    ``repro.interp.pycodegen`` — methods its codegen cannot reproduce
    fall back to the walker) or ``"walk"`` (the seed tree-walker, the
    reference semantics).  When None, the ``MAYA_BACKEND`` environment
    variable decides, defaulting to :data:`DEFAULT_BACKEND`.  A
    statement budget (``max_steps``) runs every method on the walker,
    whichever backend is selected.
    """

    def __init__(self, program: CompiledProgram, echo: bool = False,
                 max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
                 max_steps: Optional[int] = None,
                 backend: Optional[str] = None):
        if backend is None:
            backend = os.environ.get("MAYA_BACKEND", "") or DEFAULT_BACKEND
        if backend not in BACKENDS:
            raise MayaError(
                f"unknown interpreter backend {backend!r} "
                f"(expected 'walk' or 'pycode')"
            )
        self.backend = backend
        if backend == "pycode":
            global _pycodegen
            if _pycodegen is None:
                from repro.interp import pycodegen

                _pycodegen = pycodegen
        self.program = program
        self.registry = program.env.registry
        # From here on the program's members are final
        # (ClassType._check_open).
        for klass in self.registry.classes.values():
            klass.sealed = True
        self.builtins = BUILTINS
        self.counters = Counters()
        self.statics: Dict[Tuple[str, str], object] = {}
        self.out = self._make_stream(echo)
        self.err = self._make_stream(echo)
        self._statics_initialized = False
        self.max_call_depth = max_call_depth
        self.max_steps = max_steps
        self._call_depth = 0
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)

    # -- setup -----------------------------------------------------------

    def _make_stream(self, echo: bool) -> JavaObject:
        stream = JavaObject(self.registry.require("java.io.PrintStream"))
        stream.peer = StreamPeer(echo)
        return stream

    @property
    def output(self) -> List[str]:
        """Lines printed to System.out so far."""
        return self.out.peer.lines

    @property
    def error_output(self) -> List[str]:
        return self.err.peer.lines

    def _init_statics(self) -> None:
        if self._statics_initialized:
            return
        self._statics_initialized = True
        for compiled in self.program.classes.values():
            for member in compiled.decl.members:
                if not isinstance(member, n.FieldDecl):
                    continue
                if "static" not in member.modifiers:
                    continue
                field_scope = None
                for declarator in member.declarators:
                    field = compiled.type.fields[declarator.name.name]
                    key = (compiled.type.name, field.name)
                    if declarator.init is not None:
                        value = self._eval_initializer(
                            declarator.init, field.type, {"this": None}
                        )
                    else:
                        value = default_value(field.type)
                    self.statics[key] = value

    # -- entry points ----------------------------------------------------------

    def run_static(self, class_name: str, method_name: str = "main", args=()):
        """Invoke a static method of a compiled class."""
        self._init_statics()
        compiled = self.program.class_named(class_name)
        arg_values = list(args)
        method = None
        for candidate in compiled.type.all_methods(method_name):
            if candidate.is_static and len(candidate.param_types) == len(arg_values):
                method = candidate
                break
        if method is None:
            raise MayaError(f"no static method {class_name}.{method_name}")
        return self.invoke(method, None, arg_values)

    def new_instance(self, class_name: str, args=()):
        """Instantiate a compiled or built-in class by name."""
        self._init_statics()
        klass = self.registry.require(class_name)
        arg_types = [self._runtime_type(a) for a in args]
        ctor = klass.find_constructor(arg_types)
        return self.construct(klass, ctor, list(args))

    def call(self, receiver, method_name: str, args=()):
        """Invoke a method on a runtime object (virtual dispatch)."""
        klass = self._class_of_value(receiver)
        arg_types = [self._runtime_type(a) for a in args]
        method = klass.find_method(method_name, arg_types)
        return self.invoke(method, receiver, list(args))

    # -- exceptions -----------------------------------------------------------

    def throw(self, class_name: str, message: Optional[str]) -> JavaThrow:
        exception = JavaObject(self.registry.require(class_name))
        exception.fields["message"] = message
        return JavaThrow(exception)

    # -- allocation -------------------------------------------------------------

    def new_builtin(self, class_name: str, peer=None) -> JavaObject:
        _C_ALLOCATIONS.value += 1
        obj = JavaObject(self.registry.require(class_name), peer)
        return obj

    def construct(self, klass: ClassType, ctor: Method, args) -> JavaObject:
        _C_ALLOCATIONS.value += 1
        obj = JavaObject(klass)
        self._run_field_inits(obj, klass)
        self._run_ctor(obj, klass, ctor, args)
        return obj

    def _run_field_inits(self, obj: JavaObject, klass: ClassType) -> None:
        chain = [k for k in klass.ancestors() if not k.is_interface]
        for current in reversed(chain):
            decl = getattr(current, "decl", None)
            if decl is None:
                continue
            for member in decl.members:
                if not isinstance(member, n.FieldDecl):
                    continue
                if "static" in member.modifiers:
                    continue
                for declarator in member.declarators:
                    field = current.fields[declarator.name.name]
                    if declarator.init is not None:
                        value = self._eval_initializer(
                            declarator.init, field.type, {"this": obj}
                        )
                    else:
                        value = default_value(field.type)
                    obj.fields[field.name] = value

    def _run_ctor(self, obj: JavaObject, klass: ClassType, ctor: Method, args):
        builtin = self.builtins.find_constructor(klass.name)
        if builtin is not None:
            builtin(self, obj, args)
            return
        decl = ctor.decl
        if decl is None:
            # Implicit no-arg constructor: chain to the superclass.
            if klass.superclass is not None:
                parent = klass.superclass
                self._run_ctor(obj, parent, parent.find_constructor(()), [])
            return
        frame = {"this": obj, "__class__": klass}
        for formal, value in zip(decl.formals, args):
            frame[formal.name.name] = value
        body = decl.body
        explicit_chain = _starts_with_ctor_call(body)
        if not explicit_chain and klass.superclass is not None:
            parent = klass.superclass
            if self.builtins.find_constructor(parent.name) is not None:
                self.builtins.find_constructor(parent.name)(self, obj, [])
            else:
                self._run_ctor(obj, parent, parent.find_constructor(()), [])
        try:
            self.exec_block(body, frame)
        except _Return:
            pass

    # -- invocation ---------------------------------------------------------------

    def invoke(self, method: Method, receiver, args):
        """Invoke with virtual dispatch on the receiver's runtime class."""
        _C_METHOD_CALLS.value += 1
        if receiver is not None and not method.is_static:
            runtime_class = self._class_of_value(receiver)
            method = self._virtual_lookup(runtime_class, method)
        return self.invoke_exact(method, receiver, args)

    def invoke_exact(self, method: Method, receiver, args):
        """Invoke without virtual lookup (super sends)."""
        if self._call_depth >= self.max_call_depth:
            raise JavaStackOverflow(
                f"Java stack overflow: call depth exceeded "
                f"{self.max_call_depth} invoking {method}"
            )
        self._call_depth += 1
        try:
            return self._invoke_exact(method, receiver, args)
        finally:
            self._call_depth -= 1

    def _invoke_exact(self, method: Method, receiver, args):
        if method.impl is not None:
            # A Python implementation attached directly to the Method
            # (intercession-added members).
            return method.impl(self, receiver, args)
        decl = method.decl
        if self.backend == "pycode" and decl is not None \
                and decl.body is not None:
            plan = _pycodegen.plan_for(method, self)
            if plan is not _pycodegen.FALLBACK:
                return plan.entry(self, receiver, *args)
            # Codegen declined this method: it runs on the walker below.
        impl = None
        if decl is None:
            # Built-in implementation: search the receiver's runtime
            # class chain first (so StringBuffer.toString beats
            # Object.toString), then the declaring class chain.
            search: List[ClassType] = []
            if receiver is not None and isinstance(receiver, (JavaObject, str)):
                search.extend(self._class_of_value(receiver).ancestors())
            if method.declaring_class is not None:
                search.extend(method.declaring_class.ancestors())
            for ancestor in search:
                impl = self.builtins.find_method(ancestor.name, method.name)
                if impl is not None:
                    break
        if impl is not None:
            return impl(self, receiver, args)
        if decl is None or decl.body is None:
            raise MayaError(f"method {method} has no implementation")
        body = body_of(decl)
        frame = {"this": receiver, "__class__": method.declaring_class}
        for formal, value in zip(decl.formals, args):
            frame[formal.name.name] = value
        try:
            self.exec_block(body, frame)
        except _Return as ret:
            return ret.value
        return None

    def _virtual_lookup(self, runtime_class: ClassType, method: Method) -> Method:
        for candidate in runtime_class.all_methods(method.name):
            if candidate.same_signature(method):
                return candidate
        return method

    def _class_of_value(self, value) -> ClassType:
        if isinstance(value, JavaObject):
            return value.class_type
        if isinstance(value, str):
            return self.registry.require("java.lang.String")
        if value is None:
            raise self.throw("java.lang.NullPointerException", None)
        if isinstance(value, JavaArray):
            return self.registry.require("java.lang.Object")
        raise MayaError(f"no class for value {value!r}")

    def _runtime_type(self, value) -> Type:
        if isinstance(value, bool):
            return BOOLEAN
        if isinstance(value, int):
            return INT
        if isinstance(value, float):
            return DOUBLE
        if value is None:
            return NULL
        if isinstance(value, JavaArray):
            return array_of(value.element_type)
        return self._class_of_value(value)

    # -- statements ----------------------------------------------------------------

    def _raise_step_limit(self):
        raise StepLimitExceeded(
            f"step budget exhausted: executed more than "
            f"{self.max_steps} statements"
        )

    def exec_block(self, block, frame) -> None:
        stmts = block.stmts if isinstance(block, n.BlockStmts) else block
        for stmt in stmts:
            self.exec_stmt(stmt, frame)

    def exec_stmt(self, stmt, frame) -> None:
        _C_STATEMENTS.value += 1
        if self.max_steps is not None and \
                self.counters.statements > self.max_steps:
            self._raise_step_limit()
        if isinstance(stmt, n.LazyNode):
            obs_lazy.thunk_forcing(stmt)
            self.exec_stmt(stmt.force(), frame)
        elif isinstance(stmt, n.Block):
            self.exec_block(stmt.body, frame)
        elif isinstance(stmt, n.ExprStmt):
            self.eval(stmt.expr, frame)
        elif isinstance(stmt, n.LocalVarDecl):
            scope = stmt.scope
            declared = resolve_type_name(stmt.type_name, scope) \
                if scope is not None else None
            for ident, dims, init in stmt.bindings():
                var_type = array_of(declared, dims) if declared and dims else declared
                if init is None:
                    frame[ident.name] = default_value(var_type) if var_type else None
                else:
                    frame[ident.name] = self._eval_initializer(init, var_type, frame)
        elif isinstance(stmt, n.IfStmt):
            if self.eval(stmt.cond, frame):
                self.exec_stmt(stmt.then_stmt, frame)
            elif stmt.else_stmt is not None:
                self.exec_stmt(stmt.else_stmt, frame)
        elif isinstance(stmt, n.WhileStmt):
            while self.eval(stmt.cond, frame):
                try:
                    self.exec_stmt(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, n.DoStmt):
            while True:
                try:
                    self.exec_stmt(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self.eval(stmt.cond, frame):
                    break
        elif isinstance(stmt, n.ForStmt):
            self._exec_for(stmt, frame)
        elif isinstance(stmt, n.ReturnStmt):
            raise _Return(self.eval(stmt.expr, frame) if stmt.expr else None)
        elif isinstance(stmt, n.ThrowStmt):
            value = self.eval(stmt.expr, frame)
            raise JavaThrow(value)
        elif isinstance(stmt, n.TryStmt):
            self._exec_try(stmt, frame)
        elif isinstance(stmt, n.BreakStmt):
            raise _Break()
        elif isinstance(stmt, n.ContinueStmt):
            raise _Continue()
        elif isinstance(stmt, n.UseStmt):
            self.exec_block(stmt.body, frame)
        elif isinstance(stmt, n.EmptyStmt):
            pass
        else:
            raise MayaError(f"cannot execute {type(stmt).__name__}")

    def _exec_try(self, stmt: n.TryStmt, frame) -> None:
        try:
            try:
                self.exec_block(stmt.body, frame)
            except JavaThrow as thrown:
                for clause in stmt.catches:
                    caught_type = getattr(clause, "caught_type", None)
                    if caught_type is None:
                        from repro.typecheck import resolve_type_name

                        caught_type = resolve_type_name(
                            clause.formal.type_name, clause.formal.scope
                        )
                    if thrown.value.class_type.is_subtype_of(caught_type):
                        frame[clause.formal.name.name] = thrown.value
                        self.exec_block(clause.body, frame)
                        return
                raise
        finally:
            if stmt.finally_body is not None:
                self.exec_block(stmt.finally_body, frame)

    def _exec_for(self, stmt: n.ForStmt, frame) -> None:
        if isinstance(stmt.init, n.LocalVarDecl):
            self.exec_stmt(stmt.init, frame)
        elif isinstance(stmt.init, list):
            for expr in stmt.init:
                self.eval(expr, frame)
        while stmt.cond is None or self.eval(stmt.cond, frame):
            try:
                self.exec_stmt(stmt.body, frame)
            except _Break:
                return
            except _Continue:
                pass
            for update in stmt.update:
                self.eval(update, frame)

    def _eval_initializer(self, init, var_type, frame):
        if isinstance(init, n.ArrayInitializer):
            if not isinstance(var_type, ArrayType):
                raise MayaError("array initializer for non-array variable")
            return self._build_array(init, var_type, frame)
        return self.eval(init, frame)

    def _build_array(self, init: n.ArrayInitializer, array_type: ArrayType, frame):
        _C_ALLOCATIONS.value += 1
        element = array_type.element
        values = []
        for item in init.elements:
            if isinstance(item, n.ArrayInitializer):
                values.append(self._build_array(item, element, frame))
            else:
                values.append(self.eval(item, frame))
        return JavaArray(element, values)

    # -- expressions ---------------------------------------------------------------

    def eval(self, expr, frame):
        kind = type(expr)
        handler = _HANDLERS.get(kind)
        if handler is None:
            for klass in kind.__mro__:
                handler = _HANDLERS.get(klass)
                if handler is not None:
                    break
        if handler is None:
            raise MayaError(f"cannot evaluate {kind.__name__}")
        return handler(self, expr, frame)

    # individual handlers ------------------------------------------------

    def _eval_literal(self, expr: n.Literal, frame):
        return expr.value

    def _eval_name(self, expr: n.NameExpr, frame):
        from repro.typecheck import resolve_name

        kind, payload, fields = resolve_name(expr, expr.scope)
        if kind == "local":
            name = payload.name
            if name not in frame:
                raise MayaError(f"unbound local {name}")
            value = frame[name]
        elif kind == "this_field":
            this = frame.get("this")
            value = self._read_field(this, fields[0])
            fields = fields[1:]
        elif kind == "static":
            value = self._read_static(payload, fields[0])
            fields = fields[1:]
        else:
            raise MayaError(f"{expr} is a class, not a value")
        for field in fields:
            if field is None:  # the array-length sentinel
                value = len(value)
            else:
                value = self._read_field(value, field)
        return value

    def _eval_reference(self, expr: n.Reference, frame):
        binding = expr.binding
        name = getattr(binding, "name", binding)
        if isinstance(name, n.Ident):
            name = name.name
        if name in frame:
            return frame[name]
        raise MayaError(f"unbound reference {name}")

    def _eval_this(self, expr, frame):
        return frame.get("this")

    def _eval_paren(self, expr: n.ParenExpr, frame):
        return self.eval(expr.inner, frame)

    def _eval_field_access(self, expr: n.FieldAccess, frame):
        if isinstance(expr.receiver, n.SuperExpr):
            receiver = frame.get("this")
        else:
            receiver = self.eval(expr.receiver, frame)
        if isinstance(receiver, JavaArray) and expr.name == "length":
            return len(receiver)
        field = getattr(expr, "field", None)
        if field is None:
            klass = self._class_of_value(receiver)
            field = klass.find_field(expr.name)
        return self._read_field(receiver, field)

    def _read_field(self, receiver, field):
        _C_FIELD_READS.value += 1
        if field.is_static:
            return self._read_static(field.declaring_class, field)
        if receiver is None:
            raise self.throw("java.lang.NullPointerException", field.name)
        if field.name not in receiver.fields:
            receiver.fields[field.name] = default_value(field.type)
        return receiver.fields[field.name]

    def _read_static(self, klass: ClassType, field):
        if klass.name == "java.lang.System":
            return self.out if field.name == "out" else self.err
        if klass.name == "java.lang.Integer":
            return {"MAX_VALUE": 2**31 - 1, "MIN_VALUE": -(2**31)}[field.name]
        key = (field.declaring_class.name, field.name)
        if key not in self.statics:
            self.statics[key] = default_value(field.type)
        return self.statics[key]

    def _eval_array_access(self, expr: n.ArrayAccess, frame):
        array = self.eval(expr.array, frame)
        index = self.eval(expr.index, frame)
        return self._array_read(array, index)

    def _array_read(self, array, index):
        _C_ARRAY_READS.value += 1
        if array is None:
            raise self.throw("java.lang.NullPointerException", None)
        if index < 0 or index >= len(array.values):
            raise self.throw("java.lang.ArrayIndexOutOfBoundsException",
                             str(index))
        return array.values[index]

    def _eval_invocation(self, expr: n.MethodInvocation, frame):
        from repro.typecheck import static_type_of

        if not hasattr(expr, "target"):
            static_type_of(expr)  # computes and caches the target
        kind, payload, method = expr.target
        args = [self.eval(a, frame) for a in expr.args]
        if kind == "instance":
            receiver = self.eval(payload, frame)
            if receiver is None:
                raise self.throw("java.lang.NullPointerException", method.name)
            return self.invoke(method, receiver, args)
        if kind == "static":
            _C_METHOD_CALLS.value += 1
            return self.invoke_exact(method, None, args)
        if kind == "this":
            return self.invoke(method, frame.get("this"), args)
        if kind == "super":
            _C_METHOD_CALLS.value += 1
            return self.invoke_exact(method, frame.get("this"), args)
        if kind == "ctor_call":
            obj = frame.get("this")
            self._run_ctor(obj, payload, method, args)
            return None
        raise MayaError(f"bad invocation target {kind}")

    def _eval_new_object(self, expr: n.NewObject, frame):
        from repro.typecheck import static_type_of

        if not hasattr(expr, "target"):
            static_type_of(expr)
        _, klass, ctor = expr.target
        args = [self.eval(a, frame) for a in expr.args]
        return self.construct(klass, ctor, args)

    def _eval_new_array(self, expr: n.NewArray, frame):
        element = resolve_type_name(expr.element_type, expr.scope)
        if expr.initializer is not None:
            total_dims = max(len(expr.dim_exprs) + expr.extra_dims, 1)
            return self._build_array(expr.initializer,
                                     array_of(element, total_dims), frame)
        dims = [self.eval(d, frame) for d in expr.dim_exprs]
        return self._allocate(element, dims, expr.extra_dims)

    def _allocate(self, element: Type, dims: List[int], extra: int):
        _C_ALLOCATIONS.value += 1
        inner = array_of(element, extra + len(dims) - 1) if (extra or len(dims) > 1) \
            else element
        if len(dims) == 1:
            return JavaArray.new(inner, dims[0])
        return JavaArray(
            inner,
            [self._allocate(element, dims[1:], extra) for _ in range(dims[0])],
        )

    def _eval_unary(self, expr: n.UnaryExpr, frame):
        if expr.op in ("++", "--"):
            return self._incr(expr.operand, frame, expr.op, prefix=True)
        value = self.eval(expr.operand, frame)
        if expr.op == "!":
            return not value
        if expr.op == "-":
            return -_num(value)
        if expr.op == "+":
            return _num(value)
        if expr.op == "~":
            return ~_num(value)
        raise MayaError(f"bad unary {expr.op}")

    def _eval_postfix(self, expr: n.PostfixExpr, frame):
        return self._incr(expr.operand, frame, expr.op, prefix=False)

    def _incr(self, lvalue, frame, op, prefix):
        old = _num(self.eval(lvalue, frame))
        new = old + 1 if op == "++" else old - 1
        self._assign(lvalue, new, frame)
        return new if prefix else old

    def _eval_binary(self, expr: n.BinaryExpr, frame):
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, frame)) and \
                bool(self.eval(expr.right, frame))
        if op == "||":
            return bool(self.eval(expr.left, frame)) or \
                bool(self.eval(expr.right, frame))
        left = self.eval(expr.left, frame)
        right = self.eval(expr.right, frame)
        if op == "+":
            # Compile-time overloading: + is concatenation exactly when
            # the expression's static type is String (chars stay numeric).
            static = getattr(expr, "_static_type", None)
            if static is not None and getattr(static, "name", "") == \
                    "java.lang.String":
                return java_str(left) + java_str(right)
            if static is not None:
                return _binary_op(self, "+num", left, right)
        return _binary_op(self, op, left, right)

    def _eval_instanceof(self, expr: n.InstanceofExpr, frame):
        value = self.eval(expr.expr, frame)
        if value is None:
            return False
        target = resolve_type_name(expr.type_name, expr.scope)
        return self._runtime_type(value).is_subtype_of(target)

    def _eval_cast(self, expr: n.CastExpr, frame):
        value = self.eval(expr.expr, frame)
        target = resolve_type_name(expr.type_name, expr.scope)
        if isinstance(target, PrimitiveType):
            return _primitive_cast(value, target)
        if value is None:
            return None
        if not self._runtime_type(value).is_subtype_of(target):
            raise self.throw(
                "java.lang.ClassCastException",
                f"{self._runtime_type(value)} to {target}",
            )
        return value

    def _eval_assignment(self, expr: n.Assignment, frame):
        if expr.op == "=":
            value = self.eval(expr.value, frame)
        else:
            op = expr.op[:-1]
            current = self.eval(expr.lhs, frame)
            value = _binary_op(self, op, current, self.eval(expr.value, frame))
        self._assign(expr.lhs, value, frame)
        return value

    def _assign(self, lhs, value, frame) -> None:
        from repro.typecheck import resolve_name

        if isinstance(lhs, n.ParenExpr):
            self._assign(lhs.inner, value, frame)
            return
        if isinstance(lhs, n.NameExpr):
            kind, payload, fields = resolve_name(lhs, lhs.scope)
            if kind == "local" and not fields:
                frame[payload.name] = value
                return
            if kind == "local":
                target = frame[payload.name]
                for field in fields[:-1]:
                    target = self._read_field(target, field)
                self._write_field(target, fields[-1], value)
                return
            if kind == "this_field":
                target = frame.get("this")
                for field in fields[:-1]:
                    target = self._read_field(target, field)
                self._write_field(target, fields[-1], value)
                return
            if kind == "static":
                if len(fields) == 1:
                    _C_FIELD_WRITES.value += 1
                    key = (fields[0].declaring_class.name, fields[0].name)
                    self.statics[key] = value
                    return
                target = self._read_static(payload, fields[0])
                for field in fields[1:-1]:
                    target = self._read_field(target, field)
                self._write_field(target, fields[-1], value)
                return
            raise MayaError(f"cannot assign to {lhs}")
        if isinstance(lhs, n.FieldAccess):
            receiver = self.eval(lhs.receiver, frame)
            field = getattr(lhs, "field", None)
            if field is None:
                field = self._class_of_value(receiver).find_field(lhs.name)
            self._write_field(receiver, field, value)
            return
        if isinstance(lhs, n.ArrayAccess):
            array = self.eval(lhs.array, frame)
            index = self.eval(lhs.index, frame)
            _C_ARRAY_WRITES.value += 1
            if array is None:
                raise self.throw("java.lang.NullPointerException", None)
            if index < 0 or index >= len(array.values):
                raise self.throw("java.lang.ArrayIndexOutOfBoundsException",
                                 str(index))
            array.values[index] = value
            return
        if isinstance(lhs, n.Reference):
            name = getattr(lhs.binding, "name", lhs.binding)
            if isinstance(name, n.Ident):
                name = name.name
            frame[name] = value
            return
        raise MayaError(f"bad assignment target {type(lhs).__name__}")

    def _write_field(self, receiver, field, value) -> None:
        _C_FIELD_WRITES.value += 1
        if field.is_static:
            self.statics[(field.declaring_class.name, field.name)] = value
            return
        if receiver is None:
            raise self.throw("java.lang.NullPointerException", field.name)
        receiver.fields[field.name] = value

    def _eval_conditional(self, expr: n.ConditionalExpr, frame):
        if self.eval(expr.cond, frame):
            return self.eval(expr.then_expr, frame)
        return self.eval(expr.else_expr, frame)


def body_of(decl):
    """The body a tier executes for a method declaration.  A restored
    body is forced here, on the method's first call: decoded, checked
    and put in its declaration's place, so later calls find the block.
    The unparser reads :meth:`~repro.ast.nodes.LazyNode.view` instead,
    which never checks."""
    body = decl.body
    if isinstance(body, n.RestoredBody):
        obs_lazy.thunk_forcing(body)
        body = decl.body = body.force()
    return body


def _starts_with_ctor_call(body) -> bool:
    stmts = body.stmts if isinstance(body, n.BlockStmts) else body
    if not stmts:
        return False
    first = stmts[0]
    return (
        isinstance(first, n.ExprStmt)
        and isinstance(first.expr, n.MethodInvocation)
        and first.expr.method.simple_name in ("<this>", "<super>")
    )


def _num(value):
    if isinstance(value, str) and len(value) == 1:
        return ord(value)
    return value


def _binary_op(interp, op, left, right):
    if op == "+" and (isinstance(left, str) and len(left) != 1
                      or isinstance(right, str) and len(right) != 1
                      or isinstance(left, (JavaObject, JavaArray))
                      or isinstance(right, (JavaObject, JavaArray))
                      or left is None or right is None):
        return java_str(left) + java_str(right)
    if op in ("==", "!="):
        equal = _java_equal(left, right)
        return equal if op == "==" else not equal
    a, b = _num(left), _num(right)
    if op == "+":
        # Without static info, single-char strings are ambiguous between
        # char and String; prefer concatenation when either is a string.
        if isinstance(left, str) or isinstance(right, str):
            return java_str(left) + java_str(right)
        return a + b
    if op == "+num":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0 and isinstance(a, int) and isinstance(b, int):
            raise interp.throw("java.lang.ArithmeticException", "/ by zero")
        if isinstance(a, int) and isinstance(b, int):
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        if b == 0:
            # JLS 15.17.2: a zero divisor gives a signed infinity, or
            # NaN for a zero or NaN dividend.
            if a == 0 or a != a:
                return math.nan
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
        return a / b
    if op == "%":
        if b == 0 and isinstance(a, int) and isinstance(b, int):
            raise interp.throw("java.lang.ArithmeticException", "% by zero")
        if isinstance(a, int) and isinstance(b, int):
            return a - _binary_op(interp, "/", a, b) * b
        # JLS 15.17.3: NaN for a zero divisor or an infinite dividend.
        if b == 0 or math.isinf(a):
            return math.nan
        return math.fmod(a, b)
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "&":
        return a & b if not isinstance(a, bool) else (a and b)
    if op == "|":
        return a | b if not isinstance(a, bool) else (a or b)
    if op == "^":
        return a ^ b if not isinstance(a, bool) else (a != b)
    if op == "<<":
        return _int32(a << b)
    if op == ">>":
        return a >> b
    if op == ">>>":
        return (a & 0xFFFFFFFF) >> b
    raise MayaError(f"bad operator {op}")


def _java_equal(left, right) -> bool:
    if isinstance(left, (JavaObject, JavaArray)) or \
            isinstance(right, (JavaObject, JavaArray)):
        return left is right
    if left is None or right is None:
        return left is right
    return _num(left) == _num(right)


def _int32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _primitive_cast(value, target: PrimitiveType):
    name = target.name
    if name == "boolean":
        return bool(value)
    if name == "char":
        return chr(_num(value) & 0xFFFF)
    if name in ("float", "double"):
        return float(_num(value))
    number = _num(value)
    truncated = int(number)
    if name == "int":
        return _int32(truncated)
    if name == "long":
        return truncated
    if name == "short":
        short = truncated & 0xFFFF
        return short - 0x10000 if short >= 0x8000 else short
    if name == "byte":
        byte = truncated & 0xFF
        return byte - 0x100 if byte >= 0x80 else byte
    return truncated


_HANDLERS = {
    n.Literal: Interpreter._eval_literal,
    n.NameExpr: Interpreter._eval_name,
    n.Reference: Interpreter._eval_reference,
    n.ThisExpr: Interpreter._eval_this,
    n.ParenExpr: Interpreter._eval_paren,
    n.FieldAccess: Interpreter._eval_field_access,
    n.ArrayAccess: Interpreter._eval_array_access,
    n.MethodInvocation: Interpreter._eval_invocation,
    n.NewObject: Interpreter._eval_new_object,
    n.NewArray: Interpreter._eval_new_array,
    n.UnaryExpr: Interpreter._eval_unary,
    n.PostfixExpr: Interpreter._eval_postfix,
    n.BinaryExpr: Interpreter._eval_binary,
    n.InstanceofExpr: Interpreter._eval_instanceof,
    n.CastExpr: Interpreter._eval_cast,
    n.Assignment: Interpreter._eval_assignment,
    n.ConditionalExpr: Interpreter._eval_conditional,
}
