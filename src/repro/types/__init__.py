"""The type system: Type objects, subtyping, members, and the registry.

Type objects support the introspection API the paper gives Mayans
(java.lang.Class-like queries) plus the limited intercession that lets
metaprograms add members to a class body (section 3.2).
"""

from repro.types.types import (
    ArrayType,
    ClassType,
    ERROR,
    ErrorType,
    Field,
    Method,
    NullType,
    PrimitiveType,
    Type,
    TypeError_,
    BOOLEAN,
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    NULL,
    SHORT,
    VOID,
    array_of,
    binary_numeric_promotion,
    can_assign,
    can_cast,
)
from repro.types.registry import TypeRegistry
from repro.types.skeleton import export, install, validate

__all__ = [
    "ArrayType",
    "BOOLEAN",
    "BYTE",
    "CHAR",
    "ClassType",
    "DOUBLE",
    "ERROR",
    "ErrorType",
    "FLOAT",
    "Field",
    "INT",
    "LONG",
    "Method",
    "NULL",
    "NullType",
    "PrimitiveType",
    "SHORT",
    "Type",
    "TypeError_",
    "TypeRegistry",
    "VOID",
    "array_of",
    "binary_numeric_promotion",
    "can_assign",
    "can_cast",
    "export",
    "install",
    "validate",
]
