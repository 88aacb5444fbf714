"""Built-in runtime classes (the slice of the JDK the paper's examples use).

Signatures only, as class skeletons (:mod:`repro.types.skeleton`);
implementations are registered by repro.interp.  The
``maya.util.Vector`` class is the paper's section-3 example — it extends
``java.util.Vector`` and exposes its backing array via
``getElementData()``, which is what makes the specialized ``VForEach``
expansion profitable.
"""

from __future__ import annotations

from repro.types.registry import TypeRegistry
from repro.types.skeleton import install

#: The builtin classes as skeletons; :func:`install` takes them in any
#: order.
BUILTIN_SKELETONS = [
    ("java.lang.Object", None, (), False, (), [
        ("ctor", "", (), "void", ()),
        ("method", "equals", ("java.lang.Object",), "boolean", ()),
        ("method", "hashCode", (), "int", ()),
        ("method", "toString", (), "java.lang.String", ()),
    ]),
    ("java.lang.String", "java.lang.Object", (), False, (), [
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
    ]),
    ("java.lang.StringBuffer", "java.lang.Object", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
        ("method", "append", ("java.lang.String",), "java.lang.StringBuffer", ()),
        ("method", "append", ("java.lang.Object",), "java.lang.StringBuffer", ()),
        ("method", "append", ("int",), "java.lang.StringBuffer", ()),
        ("method", "append", ("char",), "java.lang.StringBuffer", ()),
        ("method", "append", ("double",), "java.lang.StringBuffer", ()),
        ("method", "append", ("boolean",), "java.lang.StringBuffer", ()),
        ("method", "toString", (), "java.lang.String", ()),
        ("method", "length", (), "int", ()),
    ]),
    ("java.lang.Number", "java.lang.Object", (), False, (), []),
    ("java.lang.Integer", "java.lang.Number", (), False, (), [
        ("ctor", "", ("int",), "void", ()),
        ("method", "intValue", (), "int", ()),
        ("method", "parseInt", ("java.lang.String",), "int", ("static",)),
        ("method", "toString", ("int",), "java.lang.String", ("static",)),
        ("method", "valueOf", ("int",), "java.lang.Integer", ("static",)),
        ("field", "MAX_VALUE", (), "int", ("static", "final")),
        ("field", "MIN_VALUE", (), "int", ("static", "final")),
    ]),
    ("java.lang.Long", "java.lang.Number", (), False, (), [
        ("ctor", "", ("long",), "void", ()),
        ("method", "longValue", (), "long", ()),
    ]),
    ("java.lang.Double", "java.lang.Number", (), False, (), [
        ("ctor", "", ("double",), "void", ()),
        ("method", "doubleValue", (), "double", ()),
        ("method", "parseDouble", ("java.lang.String",), "double", ("static",)),
    ]),
    ("java.lang.Boolean", "java.lang.Object", (), False, (), [
        ("ctor", "", ("boolean",), "void", ()),
        ("method", "booleanValue", (), "boolean", ()),
    ]),
    ("java.lang.Character", "java.lang.Object", (), False, (), [
        ("ctor", "", ("char",), "void", ()),
        ("method", "charValue", (), "char", ()),
    ]),
    ("java.lang.Math", "java.lang.Object", (), False, (), [
        ("method", "abs", ("int",), "int", ("static",)),
        ("method", "abs", ("double",), "double", ("static",)),
        ("method", "max", ("int", "int"), "int", ("static",)),
        ("method", "min", ("int", "int"), "int", ("static",)),
        ("method", "sqrt", ("double",), "double", ("static",)),
    ]),
    ("java.lang.System", "java.lang.Object", (), False, (), [
        ("field", "out", (), "java.io.PrintStream", ("static", "final")),
        ("field", "err", (), "java.io.PrintStream", ("static", "final")),
        ("method", "currentTimeMillis", (), "long", ("static",)),
    ]),
    ("java.io.PrintStream", "java.lang.Object", (), False, (), [
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
    ]),
    ("java.lang.Throwable", "java.lang.Object", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
        ("method", "getMessage", (), "java.lang.String", ()),
    ]),
    ("java.lang.Exception", "java.lang.Throwable", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.RuntimeException", "java.lang.Exception", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.NullPointerException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", (), "void", ()),
    ]),
    ("java.lang.ClassCastException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.ArithmeticException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.IndexOutOfBoundsException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.ArrayIndexOutOfBoundsException",
     "java.lang.IndexOutOfBoundsException", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.IllegalArgumentException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.Error", "java.lang.Throwable", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.lang.AssertionError", "java.lang.Error", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("java.lang.String",), "void", ()),
    ]),
    ("java.util.NoSuchElementException",
     "java.lang.RuntimeException", (), False, (), [
        ("ctor", "", (), "void", ()),
    ]),
    ("java.util.Enumeration", None, (), True, (), [
        ("method", "hasMoreElements", (), "boolean", ("abstract",)),
        ("method", "nextElement", (), "java.lang.Object", ("abstract",)),
    ]),
    ("java.util.Vector", "java.lang.Object", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("ctor", "", ("int",), "void", ()),
        ("method", "size", (), "int", ()),
        ("method", "isEmpty", (), "boolean", ()),
        ("method", "elementAt", ("int",), "java.lang.Object", ()),
        ("method", "get", ("int",), "java.lang.Object", ()),
        ("method", "addElement", ("java.lang.Object",), "void", ()),
        ("method", "add", ("java.lang.Object",), "boolean", ()),
        ("method", "contains", ("java.lang.Object",), "boolean", ()),
        ("method", "elements", (), "java.util.Enumeration", ()),
    ]),
    ("java.util.Hashtable", "java.lang.Object", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("method", "put", ("java.lang.Object", "java.lang.Object"), "java.lang.Object", ()),
        ("method", "get", ("java.lang.Object",), "java.lang.Object", ()),
        ("method", "remove", ("java.lang.Object",), "java.lang.Object", ()),
        ("method", "containsKey", ("java.lang.Object",), "boolean", ()),
        ("method", "size", (), "int", ()),
        ("method", "keys", (), "java.util.Enumeration", ()),
    ]),
    ("maya.util.Vector", "java.util.Vector", (), False, (), [
        ("ctor", "", (), "void", ()),
        ("method", "getElementData", (), "java.lang.Object[]", ()),
    ]),
]


def standard_registry() -> TypeRegistry:
    """A fresh registry with all built-ins installed."""
    return install(TypeRegistry(), BUILTIN_SKELETONS)
