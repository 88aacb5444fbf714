"""Expression typing and statement checking.

``static_type_of`` implements the paper's
``Expression.getStaticType()``: it is callable at any point during
parsing (Mayan dispatch calls it for static-type specializers) and
caches its result on the node.  Dotted names are resolved with the
JLS "ambiguous name" rules, honoring resolution hints embedded by
referentially transparent templates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ast import nodes as n
from repro.diag import Diagnostic, DiagnosticError, SourceSpan
from repro.obs import lazy as obs_lazy
from repro.types import (
    ArrayType,
    BOOLEAN,
    BYTE,
    CHAR,
    ClassType,
    DOUBLE,
    ERROR,
    ErrorType,
    INT,
    LONG,
    NULL,
    PrimitiveType,
    SHORT,
    Type,
    TypeError_,
    array_of,
    binary_numeric_promotion,
    can_assign,
    can_cast,
)
from repro.typecheck.env import Scope

_PRIM_BY_LITERAL = {
    "int": INT,
    "long": LONG,
    "double": DOUBLE,
    "char": CHAR,
    "boolean": BOOLEAN,
}


class CheckError(DiagnosticError):
    """A static semantic error."""

    phase = "check"

    def __init__(self, message: str, node=None):
        location = getattr(node, "location", None)
        super().__init__(f"{location}: {message}" if location else message)
        self.node = node
        self.location = location
        self.diagnostic = Diagnostic(
            message, phase="check",
            span=SourceSpan.from_location(location), cause=self,
        )
        # Errors inside generated code point back at the use site via
        # the node's provenance chain ("expanded from ..." notes).
        from repro.trace import provenance_notes

        for note in provenance_notes(node):
            self.diagnostic.with_note(note)


# ---------------------------------------------------------------------------
# Types from syntax
# ---------------------------------------------------------------------------


def resolve_type_name(type_name: n.TypeName, scope: Scope) -> Type:
    """Resolve a syntactic type against a scope's environment."""
    if isinstance(type_name, n.StrictTypeName):
        return array_of(type_name.type, type_name.dims) \
            if type_name.dims else type_name.type
    if scope is None or scope.env is None:
        raise CheckError(f"no scope to resolve type {type_name}", type_name)
    env = scope.env
    try:
        return env.registry.resolve_type(
            type_name.base, type_name.dims, env.imports, env.package
        )
    except TypeError_ as error:
        raise CheckError(str(error), type_name) from None


# ---------------------------------------------------------------------------
# Name resolution (JLS ambiguous names, simplified)
# ---------------------------------------------------------------------------


def resolve_name(expr: n.NameExpr, scope: Scope):
    """Resolve a dotted name; caches a structured resolution on the node.

    The resolution is ``(kind, base, fields)`` where kind is "local",
    "this_field", or "static"; ``fields`` is the chain of Field objects
    applied after the base.  A pure class reference resolves to
    ("class", ClassType, []).
    """
    if expr.resolution is not None:
        return expr.resolution
    if scope is None:
        scope = expr.scope
    if scope is None:
        raise CheckError(f"name {expr} has no scope", expr)
    parts = expr.parts
    env = scope.env

    hint = getattr(expr, "resolution_hint", None)
    if hint is not None:
        klass, consumed = hint
        base: Tuple[str, object] = ("class", klass)
        index = consumed
    else:
        first = parts[0]
        binding = scope.lookup(first)
        if binding is not None:
            base = ("local", binding)
            index = 1
        else:
            field = scope.owner.find_field(first) if scope.owner else None
            if field is not None:
                base = ("this_field", field)
                index = 1
            else:
                base = None
                for k in range(len(parts), 0, -1):
                    klass = env.registry.resolve(parts[:k], env.imports, env.package)
                    if klass is not None:
                        base = ("class", klass)
                        index = k
                        break
                if base is None:
                    raise CheckError(f"unknown name {'.'.join(parts)}", expr)

    kind, payload = base
    fields: List = []
    if kind == "local":
        current = payload.type
    elif kind == "this_field":
        fields.append(payload)
        current = payload.type
    else:
        current = payload  # a ClassType used as a static context

    for segment in parts[index:]:
        if kind == "class" and not fields:
            field = payload.find_field(segment)
            if field is None or not field.is_static:
                raise CheckError(
                    f"no static field {segment} in {payload.name}", expr
                )
            fields.append(field)
            current = field.type
            kind = "static"
        else:
            field = _instance_field(current, segment, expr)
            fields.append(field)
            current = field.type if field is not None else INT

    if kind == "class" and not fields:
        expr.resolution = ("class", payload, [])
    else:
        expr.resolution = (kind if kind != "class" else "static", payload, fields)
    return expr.resolution


_LENGTH_FIELD = object()


def _instance_field(current: Type, name: str, expr):
    if isinstance(current, ArrayType) and name == "length":
        return None  # sentinel: array length (type int)
    if isinstance(current, ErrorType):
        from repro.types import Field

        return Field(name, ERROR)  # poison propagates, no cascade error
    if not isinstance(current, ClassType):
        raise CheckError(f"{current} has no field {name}", expr)
    field = current.find_field(name)
    if field is None:
        raise CheckError(f"no field {name} in {current.name}", expr)
    return field


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------


def static_type_of(expr) -> Type:
    """The static type of an expression (cached on the node)."""
    cached = getattr(expr, "_static_type", None)
    if cached is not None:
        return cached
    computed = _type_of(expr)
    expr._static_type = computed
    return computed


def _string_type(scope: Scope) -> ClassType:
    return scope.env.registry.require("java.lang.String")


def _type_of(expr) -> Type:
    scope = expr.scope
    if isinstance(expr, n.Literal):
        if expr.kind == "null":
            return NULL
        if expr.kind == "String":
            return _string_type(scope)
        return _PRIM_BY_LITERAL[expr.kind]

    if isinstance(expr, n.NameExpr):
        kind, payload, fields = resolve_name(expr, scope)
        if kind == "class":
            raise CheckError(f"{expr} names a class, not a value", expr)
        if fields:
            last = fields[-1]
            return INT if last is None else last.type
        return payload.type  # local binding

    if isinstance(expr, n.Reference):
        binding = expr.binding
        if isinstance(binding, n.Formal):
            return binding.get_type()
        if hasattr(binding, "type"):
            return binding.type
        # A bare name: resolve it in the reference's scope.
        resolved = expr.scope.lookup(str(binding)) if expr.scope else None
        if resolved is None:
            raise CheckError(f"unresolved Reference {binding}", expr)
        return resolved.type

    if isinstance(expr, n.ThisExpr):
        if scope is None or scope.this_type is None:
            raise CheckError("'this' used outside an instance context", expr)
        return scope.this_type

    if isinstance(expr, n.ParenExpr):
        return static_type_of(expr.inner)

    if isinstance(expr, n.FieldAccess):
        return _field_access_type(expr)

    if isinstance(expr, n.ArrayAccess):
        array_type = static_type_of(expr.array)
        if isinstance(array_type, ErrorType):
            _require(expr.index, INT, "array index")
            return ERROR
        if not isinstance(array_type, ArrayType):
            raise CheckError(f"indexing non-array type {array_type}", expr)
        _require(expr.index, INT, "array index")
        return array_type.element

    if isinstance(expr, n.MethodInvocation):
        return _invocation_type(expr)

    if isinstance(expr, n.NewObject):
        klass = resolve_type_name(expr.type_name, expr.scope or scope)
        if not isinstance(klass, ClassType):
            raise CheckError(f"cannot instantiate {klass}", expr)
        if klass.is_interface or "abstract" in klass.modifiers:
            raise CheckError(f"cannot instantiate abstract {klass.name}", expr)
        arg_types = [static_type_of(a) for a in expr.args]
        try:
            ctor = klass.find_constructor(arg_types)
        except TypeError_ as error:
            raise CheckError(str(error), expr) from None
        expr.target = ("ctor", klass, ctor)
        return klass

    if isinstance(expr, n.NewArray):
        element = resolve_type_name(expr.element_type, expr.scope or scope)
        for dim in expr.dim_exprs:
            _require(dim, INT, "array dimension")
        dims = len(expr.dim_exprs) + expr.extra_dims
        if expr.initializer is not None:
            dims = max(dims, 1)
        return array_of(element, dims)

    if isinstance(expr, n.ArrayInitializer):
        element: Optional[Type] = None
        for value in expr.elements:
            element = element or static_type_of(value)
        object_type = scope.env.registry.require("java.lang.Object") \
            if scope and scope.env else None
        return array_of(element if element is not None else object_type)

    if isinstance(expr, n.UnaryExpr):
        operand = static_type_of(expr.operand)
        if expr.op == "!":
            _require(expr.operand, BOOLEAN, "'!' operand")
            return BOOLEAN
        if expr.op == "~":
            return binary_numeric_promotion(operand, INT)
        if expr.op in ("++", "--"):
            return operand
        return binary_numeric_promotion(operand, INT) \
            if isinstance(operand, PrimitiveType) else operand

    if isinstance(expr, n.PostfixExpr):
        return static_type_of(expr.operand)

    if isinstance(expr, n.BinaryExpr):
        return _binary_type(expr)

    if isinstance(expr, n.InstanceofExpr):
        resolve_type_name(expr.type_name, expr.scope or scope)
        return BOOLEAN

    if isinstance(expr, n.CastExpr):
        target = resolve_type_name(expr.type_name, expr.scope or scope)
        source = static_type_of(expr.expr)
        if not can_cast(source, target):
            raise CheckError(f"cannot cast {source} to {target}", expr)
        return target

    if isinstance(expr, n.Assignment):
        lhs_type = static_type_of(expr.lhs)
        value_type = static_type_of(expr.value)
        if expr.op == "=" and not _assignable(expr.value, value_type,
                                              lhs_type):
            raise CheckError(
                f"cannot assign {value_type} to {lhs_type}", expr
            )
        return lhs_type

    if isinstance(expr, n.ConditionalExpr):
        _require(expr.cond, BOOLEAN, "conditional")
        then_type = static_type_of(expr.then_expr)
        else_type = static_type_of(expr.else_expr)
        if can_assign(else_type, then_type):
            return then_type
        if can_assign(then_type, else_type):
            return else_type
        if isinstance(then_type, PrimitiveType) and isinstance(else_type, PrimitiveType):
            return binary_numeric_promotion(then_type, else_type)
        raise CheckError(
            f"incompatible conditional arms {then_type} / {else_type}", expr
        )

    if isinstance(expr, n.SuperExpr):
        if scope is None or scope.this_type is None or scope.this_type.superclass is None:
            raise CheckError("'super' used outside an instance context", expr)
        return scope.this_type.superclass

    raise CheckError(f"cannot type {type(expr).__name__}", expr)


#: JLS 5.2: an ``int`` constant narrows to these types when it fits.
_NARROWING_RANGES = {BYTE: (-128, 127), SHORT: (-32768, 32767)}


def _int_constant(expr) -> Optional[int]:
    """The value of an ``int`` literal, optionally negated or
    parenthesized; None for any other expression."""
    sign = 1
    while True:
        if isinstance(expr, n.ParenExpr):
            expr = expr.inner
        elif isinstance(expr, n.UnaryExpr) and expr.op == "-":
            sign = -sign
            expr = expr.operand
        else:
            break
    if isinstance(expr, n.Literal) and expr.kind == "int":
        return sign * expr.value
    return None


def _assignable(expr, value_type: Type, target: Type) -> bool:
    """Assignment conversion of ``expr`` (JLS 5.2): ``can_assign``, or
    an ``int`` constant whose value fits a ``byte`` or ``short``."""
    if can_assign(value_type, target):
        return True
    bounds = _NARROWING_RANGES.get(target)
    if bounds is None or value_type is not INT:
        return False
    value = _int_constant(expr)
    return value is not None and bounds[0] <= value <= bounds[1]


def _require(expr, expected: Type, what: str) -> None:
    actual = static_type_of(expr)
    if not can_assign(actual, expected):
        raise CheckError(f"{what} must be {expected}, got {actual}", expr)


def _field_access_type(expr: n.FieldAccess) -> Type:
    receiver = expr.receiver
    if isinstance(receiver, n.SuperExpr):
        owner = expr.scope.this_type.superclass if expr.scope.this_type else None
        if owner is None:
            raise CheckError("'super' has no superclass here", expr)
        receiver_type: Type = owner
    else:
        receiver_type = static_type_of(receiver)
    field = _instance_field(receiver_type, expr.name, expr)
    expr.field = field
    return INT if field is None else field.type


def _binary_type(expr: n.BinaryExpr) -> Type:
    op = expr.op
    left = static_type_of(expr.left)
    right = static_type_of(expr.right)
    if isinstance(left, ErrorType) or isinstance(right, ErrorType):
        return BOOLEAN if op in ("==", "!=", "<", ">", "<=", ">=",
                                 "&&", "||") else ERROR
    scope = expr.scope
    if op == "+":
        string_type = _string_type(scope) if scope and scope.env else None
        if string_type is not None and (left is string_type or right is string_type):
            return string_type
    if op in ("==", "!="):
        return BOOLEAN
    if op in ("<", ">", "<=", ">="):
        if not (isinstance(left, PrimitiveType) and isinstance(right, PrimitiveType)):
            raise CheckError(f"cannot compare {left} and {right}", expr)
        return BOOLEAN
    if op in ("&&", "||"):
        _require(expr.left, BOOLEAN, f"'{op}' operand")
        _require(expr.right, BOOLEAN, f"'{op}' operand")
        return BOOLEAN
    if op in ("&", "|", "^") and left is BOOLEAN and right is BOOLEAN:
        return BOOLEAN
    if not (isinstance(left, PrimitiveType) and isinstance(right, PrimitiveType)):
        raise CheckError(f"operator {op} needs numeric operands, got "
                         f"{left} and {right}", expr)
    return binary_numeric_promotion(left, right)


# ---------------------------------------------------------------------------
# Invocation typing
# ---------------------------------------------------------------------------


def _invocation_type(expr: n.MethodInvocation) -> Type:
    method_name = expr.method
    scope = expr.scope or method_name.scope
    arg_types = [static_type_of(a) for a in expr.args]
    name = method_name.simple_name

    # Explicit constructor calls this(...) / super(...)
    if name in ("<this>", "<super>"):
        owner = scope.this_type
        target = owner if name == "<this>" else owner.superclass
        ctor = target.find_constructor(arg_types)
        expr.target = ("ctor_call", target, ctor)
        from repro.types import VOID

        return VOID

    receiver = method_name.receiver
    if receiver is None:
        parts = method_name.parts
        if len(parts) == 1:
            # Unqualified call: the enclosing class.
            owner = scope.owner if scope else None
            if owner is None:
                raise CheckError(f"no enclosing class for call {name}", expr)
            method = _find(owner, name, arg_types, expr)
            kind = "static" if method.is_static else "this"
            expr.target = (kind, owner, method)
            return method.return_type
        # Qualified: resolve the prefix as an ambiguous name.
        prefix = n.NameExpr(parts[:-1], location=method_name.location)
        prefix.scope = scope
        kind, payload, fields = resolve_name(prefix, scope)
        if kind == "class" and not fields:
            method = _find(payload, name, arg_types, expr, static_only=True)
            expr.target = ("static", payload, method)
            expr.receiver_chain = None
            return method.return_type
        receiver_type = fields[-1].type if fields else payload.type
        method = _find_on_type(receiver_type, name, arg_types, expr)
        expr.target = ("instance", prefix, method)
        return method.return_type

    if isinstance(receiver, n.SuperExpr):
        owner = scope.this_type.superclass
        method = _find(owner, name, arg_types, expr)
        expr.target = ("super", owner, method)
        return method.return_type

    receiver_type = static_type_of(receiver)
    method = _find_on_type(receiver_type, name, arg_types, expr)
    expr.target = ("instance", receiver, method)
    return method.return_type


def _find_on_type(receiver_type: Type, name, arg_types, expr):
    if isinstance(receiver_type, ErrorType):
        from repro.types import Method

        return Method(str(name), arg_types, ERROR)  # poisoned call
    if not isinstance(receiver_type, ClassType):
        raise CheckError(
            f"cannot call {name} on {receiver_type}", expr
        )
    return _find(receiver_type, name, arg_types, expr)


def _find(klass: ClassType, name, arg_types, expr, static_only=False):
    try:
        method = klass.find_method(name, arg_types)
    except TypeError_ as error:
        raise CheckError(str(error), expr) from None
    if static_only and not method.is_static:
        raise CheckError(
            f"{klass.name}.{name} is not static", expr
        )
    return method


# ---------------------------------------------------------------------------
# Statement checking
# ---------------------------------------------------------------------------


def _engine_of(scope: Scope):
    """The diagnostic engine reachable from a scope, if any."""
    return getattr(getattr(scope, "env", None), "diag", None)


def _recover(scope: Scope, error: CheckError) -> None:
    """Record a check error and continue (multi-error recovery), or
    re-raise when no engine is reachable / the error budget is spent."""
    engine = _engine_of(scope)
    if engine is None or not engine.try_absorb(error, "check"):
        raise error


def check_block(block: n.BlockStmts, scope: Scope) -> None:
    """Check a statement list, forcing lazies and extending scope.

    A statement that fails to check records a diagnostic and is skipped
    (its expressions are poisoned with ErrorType where bindings matter),
    so one bad statement no longer hides every later error.
    """
    stmts = block.stmts
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if isinstance(stmt, n.LazyNode):
            obs_lazy.thunk_forcing(stmt)
            forced = stmt.force(scope)
            if isinstance(forced, n.BlockStmts):
                stmts[index:index + 1] = forced.stmts
                continue
            stmts[index] = forced
            stmt = forced
        try:
            check_statement(stmt, scope)
        except CheckError as error:
            _recover(scope, error)
        index += 1


def check_statement(stmt, scope: Scope) -> None:
    if isinstance(stmt, n.LazyNode):
        obs_lazy.thunk_forcing(stmt)
        check_statement(stmt.force(scope), scope)
        return
    stmt.scope = scope

    if isinstance(stmt, n.Block):
        check_block(stmt.body, scope.child())
    elif isinstance(stmt, n.LocalVarDecl):
        _check_local_var(stmt, scope)
    elif isinstance(stmt, n.ExprStmt):
        _check_expr(stmt.expr, scope)
    elif isinstance(stmt, n.IfStmt):
        _check_expr(stmt.cond, scope)
        _require(stmt.cond, BOOLEAN, "if condition")
        check_statement(stmt.then_stmt, scope.child())
        if stmt.else_stmt is not None:
            check_statement(stmt.else_stmt, scope.child())
    elif isinstance(stmt, n.WhileStmt):
        _check_expr(stmt.cond, scope)
        _require(stmt.cond, BOOLEAN, "while condition")
        check_statement(stmt.body, scope.child())
    elif isinstance(stmt, n.DoStmt):
        check_statement(stmt.body, scope.child())
        _check_expr(stmt.cond, scope)
        _require(stmt.cond, BOOLEAN, "do-while condition")
    elif isinstance(stmt, n.ForStmt):
        inner = scope.child()
        if isinstance(stmt.init, n.LocalVarDecl):
            check_statement(stmt.init, inner)
        elif isinstance(stmt.init, list):
            for init_expr in stmt.init:
                _check_expr(init_expr, inner)
        if stmt.cond is not None:
            _check_expr(stmt.cond, inner)
            _require(stmt.cond, BOOLEAN, "for condition")
        check_statement(stmt.body, inner.child())
        for update in stmt.update:
            _check_expr(update, inner)
    elif isinstance(stmt, n.ReturnStmt):
        if stmt.expr is not None:
            _check_expr(stmt.expr, scope)
            actual = static_type_of(stmt.expr)
            expected = scope.return_type
            if expected is not None and not can_assign(actual, expected):
                raise CheckError(
                    f"cannot return {actual} from method returning {expected}",
                    stmt,
                )
    elif isinstance(stmt, n.ThrowStmt):
        _check_expr(stmt.expr, scope)
        thrown = static_type_of(stmt.expr)
        throwable = scope.env.registry.get("java.lang.Throwable") \
            if scope and scope.env else None
        if throwable is not None and not thrown.is_subtype_of(throwable):
            raise CheckError(f"cannot throw non-Throwable {thrown}", stmt)
    elif isinstance(stmt, n.TryStmt):
        check_block(stmt.body, scope.child())
        throwable = scope.env.registry.get("java.lang.Throwable")
        for clause in stmt.catches:
            clause.scope = scope
            catch_scope = scope.child()
            if clause.formal.type_name.scope is None or True:
                clause.formal.type_name.scope = catch_scope
            caught = resolve_type_name(clause.formal.type_name, catch_scope)
            if throwable is not None and not caught.is_subtype_of(throwable):
                raise CheckError(
                    f"cannot catch non-Throwable {caught}", clause
                )
            clause.formal.scope = catch_scope
            clause.caught_type = caught
            catch_scope.define(clause.formal.name.name, caught, "param")
            check_block(clause.body, catch_scope)
        if stmt.finally_body is not None:
            check_block(stmt.finally_body, scope.child())
    elif isinstance(stmt, n.UseStmt):
        body = n.BlockStmts(stmt.body)
        check_block(body, scope.child())
        stmt.body = body.stmts
    elif isinstance(stmt, (n.EmptyStmt, n.BreakStmt, n.ContinueStmt)):
        pass
    else:
        raise CheckError(f"cannot check {type(stmt).__name__}", stmt)


def _check_local_var(stmt: n.LocalVarDecl, scope: Scope) -> None:
    if isinstance(stmt.type_name, n.StrictTypeName) or stmt.type_name.scope is None:
        stmt.type_name.scope = scope
    try:
        declared = resolve_type_name(stmt.type_name, scope)
    except CheckError as error:
        _recover(scope, error)
        declared = ERROR
    for name_ident, dims, init in stmt.bindings():
        var_type = array_of(declared, dims) \
            if dims and not isinstance(declared, ErrorType) else declared
        if init is not None:
            # Recover per initializer: the variable is still defined
            # (poisoned if need be) so later uses don't cascade.
            try:
                _check_expr(init, scope)
                if not isinstance(init, n.ArrayInitializer):
                    init_type = static_type_of(init)
                    if not _assignable(init, init_type, var_type):
                        raise CheckError(
                            f"cannot initialize {var_type} {name_ident} "
                            f"with {init_type}", stmt
                        )
            except CheckError as error:
                _recover(scope, error)
        scope.define(name_ident.name, var_type, "local")


def _check_expr(expr, scope: Scope) -> None:
    """Attach the checker's scope to an expression subtree and type it.

    The checker is the authority on lexical structure: it re-attaches
    scopes (parse-time scopes were only provisional, used for Mayan
    dispatch), then forces a full typing of the expression.
    """
    _attach_scopes(expr, scope)
    static_type_of(expr)


def _attach_scopes(node, scope: Scope) -> None:
    if isinstance(node, n.Node) and not isinstance(node, n.LazyNode):
        node.scope = scope
        for child in node.children():
            _attach_scopes(child, scope)
