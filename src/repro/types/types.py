"""Type objects: primitives, classes, arrays, null, and conversions."""

from __future__ import annotations

import operator
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.diag import DiagnosticError


class TypeError_(DiagnosticError):
    """A static type error (named with a trailing underscore to avoid
    shadowing the builtin)."""

    phase = "check"


class Type:
    """Base class of all types."""

    def is_subtype_of(self, other: "Type") -> bool:
        return self is other

    def is_reference(self) -> bool:
        return False

    def syntax_parts(self) -> Tuple[Tuple[str, ...], int]:
        """The (dotted name parts, dims) spelling of this type."""
        raise NotImplementedError

    def __str__(self) -> str:
        parts, dims = self.syntax_parts()
        return ".".join(parts) + "[]" * dims


class PrimitiveType(Type):
    """A Java primitive type (singletons below)."""

    _NUMERIC_ORDER = ("byte", "short", "char", "int", "long", "float", "double")

    def __init__(self, name: str):
        self.name = name

    def syntax_parts(self):
        return ((self.name,), 0)

    @property
    def is_numeric(self) -> bool:
        return self.name in self._NUMERIC_ORDER

    def widens_to(self, other: "Type") -> bool:
        """Java widening primitive conversion (JLS 5.1.2, simplified)."""
        if self is other:
            return True
        if not isinstance(other, PrimitiveType):
            return False
        if not self.is_numeric or not other.is_numeric:
            return False
        order = self._NUMERIC_ORDER
        # char widens to int and beyond; byte/short do not widen to char.
        if other.name == "char":
            return False
        return order.index(self.name) < order.index(other.name)

    def __repr__(self):
        return f"<primitive {self.name}>"


BOOLEAN = PrimitiveType("boolean")
BYTE = PrimitiveType("byte")
SHORT = PrimitiveType("short")
CHAR = PrimitiveType("char")
INT = PrimitiveType("int")
LONG = PrimitiveType("long")
FLOAT = PrimitiveType("float")
DOUBLE = PrimitiveType("double")
VOID = PrimitiveType("void")

PRIMITIVES: Dict[str, PrimitiveType] = {
    t.name: t for t in (BOOLEAN, BYTE, SHORT, CHAR, INT, LONG, FLOAT, DOUBLE, VOID)
}


class NullType(Type):
    """The type of the null literal."""

    def is_subtype_of(self, other: Type) -> bool:
        return other.is_reference() or isinstance(other, NullType)

    def is_reference(self) -> bool:
        return True

    def syntax_parts(self):
        return (("null",), 0)


NULL = NullType()


class ErrorType(Type):
    """The poison type of an expression that already failed to check.

    It silently unifies with everything (assignable to and from any
    type, castable, promotable), so one bad statement no longer hides
    every later error behind cascade failures.  Never escapes a
    successful compile: the checker only produces it on a path that has
    already recorded an error diagnostic.
    """

    def is_subtype_of(self, other: Type) -> bool:
        return True

    def is_reference(self) -> bool:
        return True

    def syntax_parts(self):
        return (("<error>",), 0)

    def __repr__(self):
        return "<error-type>"


ERROR = ErrorType()


def _no_referent() -> None:
    return None


def weak_attribute(name: str) -> property:
    """An attribute ``name`` that refers to its value weakly: an edge
    that runs against the program's ownership (a member to its class, a
    type to its declaration), so that reference counting alone frees a
    dropped program.  Reads give the value, or None once it is gone.

    The instance keeps the reference under ``_name``; a read calls it
    without a Python frame (``methodcaller``), since the interpreter
    reads ``Method.decl`` on every call it dispatches."""
    slot = "_" + name

    def assign(obj, value) -> None:
        setattr(obj, slot, _no_referent if value is None
                else weakref.ref(value))

    return property(operator.methodcaller(slot), assign)


class Field:
    """A field signature."""

    #: The class owns its fields.
    declaring_class = weak_attribute("declaring_class")

    def __init__(self, name: str, type_: Type, modifiers: Sequence[str] = (),
                 declaring_class: "ClassType" = None):
        self.name = name
        self.type = type_
        self.modifiers = tuple(modifiers)
        self.declaring_class = declaring_class

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    def __repr__(self):
        return f"<field {self.name}: {self.type}>"


class Method:
    """A method or constructor signature.

    ``impl`` is a Python callable for built-in runtime classes; source
    methods carry their MethodDecl in ``decl`` instead.  Both back
    edges are weak: the class owns its methods, and a declaration is
    owned by its unit (or, for one that no unit holds, its program).
    """

    declaring_class = weak_attribute("declaring_class")
    decl = weak_attribute("decl")

    def __init__(
        self,
        name: str,
        param_types: Sequence[Type],
        return_type: Type,
        modifiers: Sequence[str] = (),
        declaring_class: "ClassType" = None,
        impl: Optional[Callable] = None,
        decl=None,
    ):
        self.name = name
        self.param_types = tuple(param_types)
        self.return_type = return_type
        self.modifiers = tuple(modifiers)
        self.declaring_class = declaring_class
        self.impl = impl
        self.decl = decl

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    @property
    def is_abstract(self) -> bool:
        return "abstract" in self.modifiers

    def same_signature(self, other: "Method") -> bool:
        return self.name == other.name and self.param_types == other.param_types

    def more_specific_than(self, other: "Method") -> bool:
        """JLS-style static specificity: every param assignable across."""
        return all(
            can_assign(mine, theirs)
            for mine, theirs in zip(self.param_types, other.param_types)
        )

    def __repr__(self):
        params = ", ".join(str(p) for p in self.param_types)
        return f"<method {self.return_type} {self.name}({params})>"


class ClassType(Type):
    """A class or interface type."""

    #: The source ClassDecl when compiled from source; its unit owns it.
    decl = weak_attribute("decl")

    def __init__(self, name: str, superclass: "ClassType" = None,
                 interfaces: Sequence["ClassType"] = (), is_interface: bool = False,
                 modifiers: Sequence[str] = ()):
        self.name = name  # fully qualified
        self.superclass = superclass
        self.interfaces = list(interfaces)
        self.is_interface = is_interface
        self.modifiers = tuple(modifiers)
        self.fields: Dict[str, Field] = {}
        self.methods: Dict[str, List[Method]] = {}
        self.constructors: List[Method] = []
        self.decl = None
        self.hooks: List[Callable] = []
        self.sealed = False  # set by Interpreter; see _check_open

    # -- identity / naming -------------------------------------------------

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    def get_name(self) -> str:
        return self.name

    def syntax_parts(self):
        return (tuple(self.name.split(".")), 0)

    def __repr__(self):
        return f"<class {self.name}>"

    # -- subtyping ----------------------------------------------------------

    def is_reference(self) -> bool:
        return True

    def is_subtype_of(self, other: Type) -> bool:
        if self is other:
            return True
        if not isinstance(other, ClassType):
            return False
        return other in self.ancestors()

    def ancestors(self) -> List["ClassType"]:
        """All supertypes, self included, most derived first: each
        class before its superclass chain, and that before its
        interfaces, depth first."""
        out: List[ClassType] = []
        seen = set()
        stack: List[Optional[ClassType]] = [self]
        while stack:
            klass = stack.pop()
            if klass is None or klass.name in seen:
                continue
            seen.add(klass.name)
            out.append(klass)
            stack.extend(reversed(klass.interfaces))
            stack.append(klass.superclass)
        return out

    # -- member declaration (intercession API) -------------------------------

    def _check_open(self, action: str, name: str) -> None:
        """Members change only at compile time (the class shaper and
        intercession Mayans).  ``Interpreter`` seals every class of the
        program it runs, so the plans and call sites built while it
        runs never go stale; a sealed class's mutators raise."""
        if self.sealed:
            raise TypeError_(
                f"cannot {action} {name} on {self.name}: its program "
                f"has run, so its members are final")

    def declare_field(self, name: str, type_: Type, modifiers: Sequence[str] = ()) -> Field:
        self._check_open("declare field", name)
        field = Field(name, type_, modifiers, self)
        self.fields[name] = field
        return field

    def declare_method(
        self,
        name: str,
        param_types: Sequence[Type],
        return_type: Type,
        modifiers: Sequence[str] = (),
        impl: Optional[Callable] = None,
        decl=None,
    ) -> Method:
        self._check_open("declare method", name)
        method = Method(name, param_types, return_type, modifiers, self, impl, decl)
        bucket = self.methods.setdefault(name, [])
        for index, existing in enumerate(bucket):
            if existing.same_signature(method):
                bucket[index] = method
                return method
        bucket.append(method)
        return method

    def remove_method(self, method: Method) -> None:
        self._check_open("remove method", method.name)
        bucket = self.methods.get(method.name, [])
        if method in bucket:
            bucket.remove(method)

    def declare_constructor(
        self,
        param_types: Sequence[Type],
        modifiers: Sequence[str] = (),
        impl: Optional[Callable] = None,
        decl=None,
    ) -> Method:
        ctor = Method("<init>", param_types, VOID, modifiers, self, impl, decl)
        self.constructors.append(ctor)
        return ctor

    # -- member lookup ---------------------------------------------------------

    def find_field(self, name: str) -> Optional[Field]:
        for klass in self.ancestors():
            field = klass.fields.get(name)
            if field is not None:
                return field
        return None

    def all_methods(self, name: str) -> List[Method]:
        """All visible methods with this name, most derived first,
        overridden methods excluded."""
        out: List[Method] = []
        for klass in self.ancestors():
            for method in klass.methods.get(name, ()):
                if not any(method.same_signature(m) for m in out):
                    out.append(method)
        return out

    def find_method(self, name: str, arg_types: Sequence[Type]) -> Method:
        """Overload resolution (simplified JLS 15.12)."""
        candidates = [
            m
            for m in self.all_methods(name)
            if len(m.param_types) == len(arg_types)
            and all(can_assign(a, p) for a, p in zip(arg_types, m.param_types))
        ]
        if not candidates:
            args = ", ".join(str(t) for t in arg_types)
            raise TypeError_(f"no method {self.name}.{name}({args})")
        return _most_specific(candidates, f"{self.name}.{name}")

    def find_constructor(self, arg_types: Sequence[Type]) -> Method:
        candidates = [
            c
            for c in self.constructors
            if len(c.param_types) == len(arg_types)
            and all(can_assign(a, p) for a, p in zip(arg_types, c.param_types))
        ]
        if not candidates:
            if not self.constructors and not arg_types:
                # Implicit no-arg constructor.
                return Method("<init>", (), VOID, (), self)
            args = ", ".join(str(t) for t in arg_types)
            raise TypeError_(f"no constructor {self.name}({args})")
        return _most_specific(candidates, f"{self.name}.<init>")


def _most_specific(candidates: List[Method], what: str) -> Method:
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate.more_specific_than(best):
            best = candidate
    for candidate in candidates:
        if candidate is not best and not best.more_specific_than(candidate):
            raise TypeError_(f"ambiguous call to {what}")
    return best


class ArrayType(Type):
    """An array type; interned on its element type via array_of()."""

    def __init__(self, element: Type):
        self.element = element

    def is_reference(self) -> bool:
        return True

    def is_subtype_of(self, other: Type) -> bool:
        if self is other:
            return True
        if isinstance(other, ClassType):
            return other.name in ("java.lang.Object",)
        if isinstance(other, ArrayType):
            # Java's covariant arrays (for reference element types).
            return (
                self.element.is_reference()
                and other.element.is_reference()
                and self.element.is_subtype_of(other.element)
            )
        return False

    def syntax_parts(self):
        parts, dims = self.element.syntax_parts()
        return (parts, dims + 1)

    def __repr__(self):
        return f"<array {self}>"


def array_of(element: Type, dims: int = 1) -> Type:
    """The ``dims``-dimensional array of ``element``: one object per
    element type, kept on the element so that it lives as long as the
    element does (a session's classes, or the shared primitives)."""
    out = element
    for _ in range(dims):
        cached = out.__dict__.get("_array_type")
        if cached is None:
            # setdefault is atomic, so workers racing on a shared
            # element still agree on one array type.
            cached = out.__dict__.setdefault("_array_type", ArrayType(out))
        out = cached
    return out


def can_assign(src: Type, dst: Type) -> bool:
    """Assignment conversion: identity, widening, or reference subtyping."""
    if src is dst:
        return True
    if isinstance(src, ErrorType) or isinstance(dst, ErrorType):
        return True  # poison unifies silently (recovery mode)
    if isinstance(src, PrimitiveType) and isinstance(dst, PrimitiveType):
        return src.widens_to(dst)
    if src.is_reference() and dst.is_reference():
        return src.is_subtype_of(dst)
    return False


def can_cast(src: Type, dst: Type) -> bool:
    """Casting conversion (simplified: both directions of assignability,
    plus numeric narrowing, plus down-casts among reference types)."""
    if can_assign(src, dst) or can_assign(dst, src):
        return True
    if isinstance(src, PrimitiveType) and isinstance(dst, PrimitiveType):
        return src.is_numeric and dst.is_numeric
    if src.is_reference() and dst.is_reference():
        # Interfaces cast freely; sibling classes do not.
        for side in (src, dst):
            if isinstance(side, ClassType) and side.is_interface:
                return True
        return False
    return False


def binary_numeric_promotion(left: Type, right: Type) -> Type:
    """JLS 5.6.2, simplified to our primitive set."""
    if isinstance(left, ErrorType) or isinstance(right, ErrorType):
        return ERROR
    for name in ("double", "float", "long"):
        prim = PRIMITIVES[name]
        if left is prim or right is prim:
            return prim
    return INT
