"""AST node classes.

Every node carries:

* ``location`` — source position,
* ``syntax`` — the (production, child values) pair recorded when the
  parser reduced it, used by structure specializers and ``syntax case``
  pattern matching,
* ``scope`` — the lexical scope in effect where the node was parsed
  (set by the compiler), which is how ``get_static_type`` works without
  arguments, as in the paper's reflection API.

The class hierarchy itself is the node-type lattice that Mayan dispatch
compares with: ``MethodInvocation`` is more specific than ``Primary``,
which is more specific than ``Expression``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.lexer import Location

__all__ = [
    "ArrayAccess",
    "ArrayInitializer",
    "Assignment",
    "BinaryExpr",
    "Block",
    "BlockStmts",
    "BreakStmt",
    "CastExpr",
    "CatchClause",
    "ClassDecl",
    "CompilationUnit",
    "ConditionalExpr",
    "ConstructorDecl",
    "ContinueStmt",
    "DeclStmt",
    "Declaration",
    "DoStmt",
    "EmptyStmt",
    "Expression",
    "ExprStmt",
    "FieldAccess",
    "FieldDecl",
    "ForStmt",
    "Formal",
    "Ident",
    "IfStmt",
    "ImportDecl",
    "InstanceofExpr",
    "InterfaceDecl",
    "LazyNode",
    "Literal",
    "LocalVarDecl",
    "MemberDecl",
    "MethodDecl",
    "MethodInvocation",
    "MethodName",
    "NameExpr",
    "NewArray",
    "NewObject",
    "Node",
    "PackageDecl",
    "ParenExpr",
    "PostfixExpr",
    "Primary",
    "Reference",
    "RestoredBody",
    "ReturnStmt",
    "Statement",
    "StrictTypeName",
    "SuperExpr",
    "SyntaxList",
    "ThisExpr",
    "ThrowStmt",
    "TryStmt",
    "TypeDecl",
    "TypeName",
    "UnaryExpr",
    "UseDecl",
    "VarDeclaration",
    "UseStmt",
    "VarDeclarator",
    "WhileStmt",
    "structurally_equal",
]


def _kind_tag(class_name: str) -> str:
    """snake_case tag for a node class name (MethodInvocation ->
    method_invocation)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", class_name).lower()


class Node:
    """Base class for all AST nodes."""

    _fields: Tuple[str, ...] = ()

    #: Provenance: the expansion that produced this node (a
    #: ``repro.trace.Origin``), or None for user-written syntax.  A
    #: class attribute so ordinary nodes pay nothing; stamped as an
    #: instance attribute on nodes built during Mayan activations.
    origin = None

    #: Stable node-kind tag: the snake_case class name, assigned
    #: automatically for every subclass.  The pycode backend dispatches
    #: its code generator on these strings (and uses them in telemetry
    #: labels) instead of on class identity.
    node_kind = "node"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.node_kind = _kind_tag(cls.__name__)

    def __init__(self, *args, location: Location = Location.UNKNOWN):
        if len(args) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields "
                f"{self._fields}, got {len(args)}"
            )
        for name, value in zip(self._fields, args):
            setattr(self, name, value)
        self.location = location
        self.syntax: Optional[Tuple[object, Tuple[object, ...]]] = None
        self.scope = None

    def fields(self):
        return [(name, getattr(self, name)) for name in self._fields]

    def children(self) -> List["Node"]:
        out: List[Node] = []
        for _, value in self.fields():
            _collect_nodes(value, out)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields())
        return f"{type(self).__name__}({inner})"

    # -- reflection-style API (paper section 3.2) ------------------------

    def get_static_type(self):
        """The static type of this node, per the lazily-run checker.

        Only meaningful for expressions; requires the compiler to have
        attached a scope (it does so during parsing).
        """
        from repro.typecheck import static_type_of

        return static_type_of(self)

    def get_location(self) -> Location:
        return self.location


def _collect_nodes(value, out: List[Node]) -> None:
    if isinstance(value, Node):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for element in value:
            _collect_nodes(element, out)


def structurally_equal(a, b) -> bool:
    """Structural AST equality, ignoring locations, scopes, and laziness."""
    a = a.force() if isinstance(a, LazyNode) and a.is_forced() else a
    b = b.force() if isinstance(b, LazyNode) and b.is_forced() else b
    if isinstance(a, Node) and isinstance(b, Node):
        if type(a) is not type(b):
            return False
        return all(
            structurally_equal(x, y)
            for (_, x), (_, y) in zip(a.fields(), b.fields())
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


# ---------------------------------------------------------------------------
# Leaves and names
# ---------------------------------------------------------------------------


class SyntaxList(Node):
    """The value of a multi-symbol subtree group in a user production.

    The paper's G0-style actions "produce AST nodes from unstructured
    subtrees"; for groups containing several symbols the node is simply
    the sequence of child values, structurally matchable.
    """

    _fields = ("values",)

    def __getitem__(self, index):
        return self.values[index]

    def __len__(self):
        return len(self.values)


class Ident(Node):
    """An identifier occurrence (declared name or name segment)."""

    _fields = ("name",)

    name: str

    def __str__(self) -> str:
        return self.name

    def get_name(self) -> str:
        return self.name


class TypeName(Node):
    """A syntactic type: dotted name or primitive keyword, plus dims."""

    _fields = ("base", "dims")

    base: Tuple[str, ...]  # ("java","util","Vector") or ("int",)
    dims: int

    def __str__(self) -> str:
        return ".".join(self.base) + "[]" * self.dims


class StrictTypeName(TypeName):
    """A type name resolved directly to a Type object.

    This is the paper's referential-transparency device: templates embed
    StrictTypeNames so the generated code means the same type regardless
    of names in scope at the expansion site.  Built with
    ``StrictTypeName.make(type_object)``.
    """

    _fields = ("base", "dims", "type")

    @classmethod
    def make(cls, type_object) -> "StrictTypeName":
        base, dims = type_object.syntax_parts()
        return cls(base, dims, type_object)

    def __str__(self) -> str:
        return str(self.type)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class of all expressions."""


class Primary(Expression):
    """Expressions usable as a field-access/array-access receiver."""


class Literal(Primary):
    _fields = ("kind", "value")

    kind: str  # int, long, double, char, String, boolean, null
    value: object


class NameExpr(Expression):
    """A dotted name in expression position ("ambiguous name", JLS 6.5).

    The type checker reclassifies the segments as a local variable,
    field chain, or type prefix; ``resolution`` caches the result.
    """

    _fields = ("parts",)

    parts: Tuple[str, ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resolution = None

    def __str__(self) -> str:
        return ".".join(self.parts)


class Reference(Expression):
    """A direct reference to a variable binding, bypassing name lookup.

    ``Reference.make_expr(binding)`` is the paper's
    ``Reference.makeExpr``: it generates a reference to a local variable
    (or field) directly rather than an occurrence of its name, so
    hygiene renaming and shadowing cannot affect it.
    """

    _fields = ("binding",)

    @classmethod
    def make_expr(cls, binding) -> "Reference":
        return cls(binding)

    # Paper-style alias.
    makeExpr = make_expr


class ThisExpr(Primary):
    _fields = ()


class SuperExpr(Expression):
    _fields = ()


class ParenExpr(Primary):
    _fields = ("inner",)


class FieldAccess(Primary):
    _fields = ("receiver", "name")  # receiver: Expression | SuperExpr


class ArrayAccess(Primary):
    _fields = ("array", "index")


class MethodName(Node):
    """Everything left of ``(`` in a method invocation (paper 3.1).

    ``receiver`` is None for plain/dotted names (carried in ``parts``),
    or an Expression (explicit receiver) / SuperExpr.
    """

    _fields = ("receiver", "parts")

    receiver: Optional[Expression]
    parts: Tuple[str, ...]

    @property
    def simple_name(self) -> str:
        return self.parts[-1]


class MethodInvocation(Primary):
    _fields = ("method", "args")

    method: MethodName
    args: List[Expression]


class NewObject(Primary):
    _fields = ("type_name", "args")


class NewArray(Primary):
    _fields = ("element_type", "dim_exprs", "extra_dims", "initializer")


class ArrayInitializer(Expression):
    _fields = ("elements",)


class UnaryExpr(Expression):
    _fields = ("op", "operand")


class PostfixExpr(Expression):
    _fields = ("op", "operand")


class BinaryExpr(Expression):
    _fields = ("op", "left", "right")


class InstanceofExpr(Expression):
    _fields = ("expr", "type_name")


class CastExpr(Expression):
    _fields = ("type_name", "expr")


class Assignment(Expression):
    _fields = ("lhs", "op", "value")


class ConditionalExpr(Expression):
    _fields = ("cond", "then_expr", "else_expr")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base class of all statements."""


class BlockStmts(Node):
    """An ordered statement list (the content of a block)."""

    _fields = ("stmts",)

    stmts: List[Statement]


class Block(Statement):
    _fields = ("body",)

    body: BlockStmts


class EmptyStmt(Statement):
    _fields = ()


class ExprStmt(Statement):
    _fields = ("expr",)


class VarDeclarator(Node):
    _fields = ("name", "dims", "init")

    name: Ident
    dims: int
    init: Optional[Expression]


class LocalVarDecl(Statement):
    _fields = ("modifiers", "type_name", "declarators")

    def bindings(self):
        """The (name Ident, extra dims, init) triples declared here."""
        return [(d.name, d.dims, d.init) for d in self.declarators]

    @classmethod
    def make(cls, formal: "Formal") -> "LocalVarDecl":
        """Translate a formal parameter into a declaration statement.

        This is the paper's ``DeclStmt.make(var)`` (figure 2, line 12).
        """
        declarator = VarDeclarator(formal.name, 0, None, location=formal.location)
        return cls(list(formal.modifiers), formal.type_name, [declarator],
                   location=formal.location)


# Paper-style alias: DeclStmt.make(...)
DeclStmt = LocalVarDecl


class IfStmt(Statement):
    _fields = ("cond", "then_stmt", "else_stmt")


class WhileStmt(Statement):
    _fields = ("cond", "body")


class DoStmt(Statement):
    _fields = ("body", "cond")


class ForStmt(Statement):
    _fields = ("init", "cond", "update", "body")


class ReturnStmt(Statement):
    _fields = ("expr",)


class ThrowStmt(Statement):
    _fields = ("expr",)


class BreakStmt(Statement):
    _fields = ()


class ContinueStmt(Statement):
    _fields = ()


class CatchClause(Node):
    _fields = ("formal", "body")


class TryStmt(Statement):
    _fields = ("body", "catches", "finally_body")


class UseStmt(Statement):
    """A metaprogram import scoped over the following statements.

    "UseStmt nodes contain the metaprogram that is imported and the list
    of statements in which it is visible" (paper section 3.3).
    """

    _fields = ("metaprogram", "body")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Declaration(Node):
    """Base class for top-level and member declarations."""


class Formal(Declaration):
    _fields = ("modifiers", "type_name", "name")

    name: Ident

    def get_type(self):
        """The resolved Type of this formal (reflection API)."""
        from repro.typecheck import resolve_type_name

        return resolve_type_name(self.type_name, self.scope)


class VarDeclaration(Formal):
    """Paper-compatible alias used in reflection examples."""


class PackageDecl(Declaration):
    _fields = ("parts",)


class ImportDecl(Declaration):
    _fields = ("parts", "on_demand")


class UseDecl(Declaration):
    """A ``use`` directive at class-body or top level."""

    _fields = ("parts",)


class TypeDecl(Declaration):
    """Base for class and interface declarations."""


class ClassDecl(TypeDecl):
    _fields = ("modifiers", "name", "superclass", "interfaces", "members")

    name: Ident


class InterfaceDecl(TypeDecl):
    _fields = ("modifiers", "name", "superinterfaces", "members")


class MemberDecl(Declaration):
    """Base for class-body member declarations."""


class FieldDecl(MemberDecl):
    _fields = ("modifiers", "type_name", "declarators")


class MethodDecl(MemberDecl):
    _fields = ("modifiers", "return_type", "name", "formals", "throws", "body")

    name: Ident
    body: object  # LazyNode | BlockStmts | None (abstract)


class ConstructorDecl(MemberDecl):
    _fields = ("modifiers", "name", "formals", "throws", "body")


class CompilationUnit(Node):
    _fields = ("package", "imports", "types")


# ---------------------------------------------------------------------------
# Laziness
# ---------------------------------------------------------------------------


class LazyNode(Node):
    """A lazily parsed piece of syntax (paper's lazy-block values).

    ``force(scope)`` parses the captured tokens with the captured
    compilation environment; the *variable* scope is supplied at force
    time because the surrounding expansion may have created bindings
    (e.g. the loop variable of foreach) that must be visible inside.
    """

    _fields = ("tree_token", "symbol")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._forced = None
        self._parse = None  # installed by the compiler

    def is_forced(self) -> bool:
        return self._forced is not None

    def force(self, scope=None):
        if self._forced is None:
            if self._parse is None:
                raise RuntimeError("LazyNode has no parse environment")
            self._forced = self._parse(scope)
        return self._forced

    def view(self):
        """The tree to print, without forcing: the forced value, or
        None while only the captured tokens exist."""
        return self._forced


class RestoredBody(LazyNode):
    """A method body restored from a deep module artifact, still in
    its blob: the pickled, stripped block of a body that was checked
    when its module compiled (:mod:`repro.modules.snapshot`).

    ``view()`` decodes the blob once, unchecked, which is all the
    unparser needs.  ``force()`` runs the check the compiler installs
    as ``_parse`` (which ignores the scope argument: it captured the
    method scope), once; a body nothing calls is never checked."""

    def __init__(self, blob: bytes, decode, location: Location = Location.UNKNOWN):
        super().__init__(None, "RestoredBody", location=location)
        self.blob = blob
        self._decode = decode
        self._view = None

    def view(self):
        if self._forced is not None:
            return self._forced
        if self._view is None:
            self._view = self._decode(self.blob)
        return self._view
