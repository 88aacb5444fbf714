"""Built-in runtime classes (the slice of the JDK the paper's examples use).

Signatures only: implementations are registered by repro.interp.  The
``maya.util.Vector`` class is the paper's section-3 example — it extends
``java.util.Vector`` and exposes its backing array via
``getElementData()``, which is what makes the specialized ``VForEach``
expansion profitable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.types.registry import TypeRegistry
from repro.types.types import PRIMITIVES, ClassType, Type, array_of

# (name, superclass, interfaces, is_interface)
_CLASSES: List[Tuple[str, str, Tuple[str, ...], bool]] = [
    ("java.lang.Object", None, (), False),
    ("java.lang.String", "java.lang.Object", (), False),
    ("java.lang.StringBuffer", "java.lang.Object", (), False),
    ("java.lang.Number", "java.lang.Object", (), False),
    ("java.lang.Integer", "java.lang.Number", (), False),
    ("java.lang.Long", "java.lang.Number", (), False),
    ("java.lang.Double", "java.lang.Number", (), False),
    ("java.lang.Boolean", "java.lang.Object", (), False),
    ("java.lang.Character", "java.lang.Object", (), False),
    ("java.lang.Math", "java.lang.Object", (), False),
    ("java.lang.System", "java.lang.Object", (), False),
    ("java.io.PrintStream", "java.lang.Object", (), False),
    ("java.lang.Throwable", "java.lang.Object", (), False),
    ("java.lang.Exception", "java.lang.Throwable", (), False),
    ("java.lang.RuntimeException", "java.lang.Exception", (), False),
    ("java.lang.NullPointerException", "java.lang.RuntimeException", (), False),
    ("java.lang.ClassCastException", "java.lang.RuntimeException", (), False),
    ("java.lang.ArithmeticException", "java.lang.RuntimeException", (), False),
    ("java.lang.IndexOutOfBoundsException", "java.lang.RuntimeException", (), False),
    ("java.lang.ArrayIndexOutOfBoundsException",
     "java.lang.IndexOutOfBoundsException", (), False),
    ("java.lang.IllegalArgumentException", "java.lang.RuntimeException", (), False),
    ("java.lang.Error", "java.lang.Throwable", (), False),
    ("java.lang.AssertionError", "java.lang.Error", (), False),
    ("java.util.NoSuchElementException", "java.lang.RuntimeException", (), False),
    ("java.util.Enumeration", None, (), True),
    ("java.util.Vector", "java.lang.Object", (), False),
    ("java.util.Hashtable", "java.lang.Object", (), False),
    ("maya.util.Vector", "java.util.Vector", (), False),
]

# class -> list of (kind, name, params, return/type, modifiers)
_MEMBERS: Dict[str, List[Tuple]] = {
    "java.lang.Object": [
        ("ctor", "", (), None, ()),
        ("method", "equals", ("java.lang.Object",), "boolean", ()),
        ("method", "hashCode", (), "int", ()),
        ("method", "toString", (), "java.lang.String", ()),
    ],
    "java.lang.String": [
        ("method", "equals", ("java.lang.Object",), "boolean", ()),
        ("method", "length", (), "int", ()),
        ("method", "charAt", ("int",), "char", ()),
        ("method", "substring", ("int",), "java.lang.String", ()),
        ("method", "substring", ("int", "int"), "java.lang.String", ()),
        ("method", "indexOf", ("java.lang.String",), "int", ()),
        ("method", "concat", ("java.lang.String",), "java.lang.String", ()),
        ("method", "toUpperCase", (), "java.lang.String", ()),
        ("method", "toLowerCase", (), "java.lang.String", ()),
        ("method", "valueOf", ("java.lang.Object",), "java.lang.String", ("static",)),
    ],
    "java.lang.StringBuffer": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
        ("method", "append", ("java.lang.String",), "java.lang.StringBuffer", ()),
        ("method", "append", ("java.lang.Object",), "java.lang.StringBuffer", ()),
        ("method", "append", ("int",), "java.lang.StringBuffer", ()),
        ("method", "append", ("char",), "java.lang.StringBuffer", ()),
        ("method", "append", ("double",), "java.lang.StringBuffer", ()),
        ("method", "append", ("boolean",), "java.lang.StringBuffer", ()),
        ("method", "toString", (), "java.lang.String", ()),
        ("method", "length", (), "int", ()),
    ],
    "java.lang.Integer": [
        ("ctor", "", ("int",), None, ()),
        ("method", "intValue", (), "int", ()),
        ("method", "parseInt", ("java.lang.String",), "int", ("static",)),
        ("method", "toString", ("int",), "java.lang.String", ("static",)),
        ("method", "valueOf", ("int",), "java.lang.Integer", ("static",)),
        ("field", "MAX_VALUE", None, "int", ("static", "final")),
        ("field", "MIN_VALUE", None, "int", ("static", "final")),
    ],
    "java.lang.Long": [
        ("ctor", "", ("long",), None, ()),
        ("method", "longValue", (), "long", ()),
    ],
    "java.lang.Double": [
        ("ctor", "", ("double",), None, ()),
        ("method", "doubleValue", (), "double", ()),
        ("method", "parseDouble", ("java.lang.String",), "double", ("static",)),
    ],
    "java.lang.Boolean": [
        ("ctor", "", ("boolean",), None, ()),
        ("method", "booleanValue", (), "boolean", ()),
    ],
    "java.lang.Character": [
        ("ctor", "", ("char",), None, ()),
        ("method", "charValue", (), "char", ()),
    ],
    "java.lang.Math": [
        ("method", "abs", ("int",), "int", ("static",)),
        ("method", "abs", ("double",), "double", ("static",)),
        ("method", "max", ("int", "int"), "int", ("static",)),
        ("method", "min", ("int", "int"), "int", ("static",)),
        ("method", "sqrt", ("double",), "double", ("static",)),
    ],
    "java.lang.System": [
        ("field", "out", None, "java.io.PrintStream", ("static", "final")),
        ("field", "err", None, "java.io.PrintStream", ("static", "final")),
        ("method", "currentTimeMillis", (), "long", ("static",)),
    ],
    "java.io.PrintStream": [
        ("method", "println", (), "void", ()),
        ("method", "println", ("java.lang.String",), "void", ()),
        ("method", "println", ("java.lang.Object",), "void", ()),
        ("method", "println", ("int",), "void", ()),
        ("method", "println", ("long",), "void", ()),
        ("method", "println", ("double",), "void", ()),
        ("method", "println", ("boolean",), "void", ()),
        ("method", "println", ("char",), "void", ()),
        ("method", "print", ("java.lang.String",), "void", ()),
        ("method", "print", ("java.lang.Object",), "void", ()),
        ("method", "print", ("int",), "void", ()),
        ("method", "print", ("char",), "void", ()),
    ],
    "java.lang.Throwable": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
        ("method", "getMessage", (), "java.lang.String", ()),
    ],
    "java.lang.Exception": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.RuntimeException": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.NullPointerException": [("ctor", "", (), None, ())],
    "java.lang.ClassCastException": [("ctor", "", ("java.lang.String",), None, ())],
    "java.lang.ArithmeticException": [("ctor", "", ("java.lang.String",), None, ())],
    "java.lang.IndexOutOfBoundsException": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.ArrayIndexOutOfBoundsException": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.IllegalArgumentException": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.Error": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.lang.AssertionError": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("java.lang.String",), None, ()),
    ],
    "java.util.NoSuchElementException": [("ctor", "", (), None, ())],
    "java.util.Enumeration": [
        ("method", "hasMoreElements", (), "boolean", ("abstract",)),
        ("method", "nextElement", (), "java.lang.Object", ("abstract",)),
    ],
    "java.util.Vector": [
        ("ctor", "", (), None, ()),
        ("ctor", "", ("int",), None, ()),
        ("method", "size", (), "int", ()),
        ("method", "isEmpty", (), "boolean", ()),
        ("method", "elementAt", ("int",), "java.lang.Object", ()),
        ("method", "get", ("int",), "java.lang.Object", ()),
        ("method", "addElement", ("java.lang.Object",), "void", ()),
        ("method", "add", ("java.lang.Object",), "boolean", ()),
        ("method", "contains", ("java.lang.Object",), "boolean", ()),
        ("method", "elements", (), "java.util.Enumeration", ()),
    ],
    "java.util.Hashtable": [
        ("ctor", "", (), None, ()),
        ("method", "put", ("java.lang.Object", "java.lang.Object"), "java.lang.Object", ()),
        ("method", "get", ("java.lang.Object",), "java.lang.Object", ()),
        ("method", "remove", ("java.lang.Object",), "java.lang.Object", ()),
        ("method", "containsKey", ("java.lang.Object",), "boolean", ()),
        ("method", "size", (), "int", ()),
        ("method", "keys", (), "java.util.Enumeration", ()),
    ],
    "maya.util.Vector": [
        ("ctor", "", (), None, ()),
        ("method", "getElementData", (), "java.lang.Object[]", ()),
    ],
}


def _parse_type(registry: TypeRegistry, spec: str) -> Type:
    dims = 0
    while spec.endswith("[]"):
        spec = spec[:-2]
        dims += 1
    if spec in PRIMITIVES:
        base: Type = PRIMITIVES[spec]
    else:
        base = registry.require(spec)
    return array_of(base, dims) if dims else base


def install_builtins(registry: TypeRegistry) -> TypeRegistry:
    """Declare all built-in classes and members into a registry."""
    for name, superclass, interfaces, is_interface in _CLASSES:
        registry.declare(name, superclass, interfaces, is_interface)
    for class_name, members in _MEMBERS.items():
        klass = registry.require(class_name)
        for kind, name, params, type_spec, modifiers in members:
            if kind == "field":
                klass.declare_field(name, _parse_type(registry, type_spec), modifiers)
            elif kind == "method":
                klass.declare_method(
                    name,
                    [_parse_type(registry, p) for p in params],
                    _parse_type(registry, type_spec),
                    modifiers,
                )
            else:  # ctor
                klass.declare_constructor(
                    [_parse_type(registry, p) for p in params], modifiers
                )
    return registry


def standard_registry() -> TypeRegistry:
    """A fresh registry with all built-ins installed."""
    return install_builtins(TypeRegistry())
