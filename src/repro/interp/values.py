"""Runtime values.

Primitives map to Python values (int/float/bool/1-char str); ``null``
is None; strings are Python str; objects are JavaObject (built-in
classes keep their state in ``peer``); arrays are JavaArray.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.types import ArrayType, ClassType, PrimitiveType, Type

JavaNull = None


class JavaObject:
    """An instance of a class; built-ins carry a Python peer."""

    __slots__ = ("class_type", "fields", "peer")

    def __init__(self, class_type: ClassType, peer=None):
        self.class_type = class_type
        self.fields = {}
        self.peer = peer

    def __repr__(self):
        return f"<{self.class_type.name} instance>"


class JavaArray:
    """A Java array: fixed length, default-initialized."""

    __slots__ = ("element_type", "values")

    def __init__(self, element_type: Type, values: List[object]):
        self.element_type = element_type
        self.values = values

    @classmethod
    def new(cls, element_type: Type, length: int) -> "JavaArray":
        return cls(element_type, [default_value(element_type)] * length)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"<array {self.element_type}[{len(self.values)}]>"


class JavaThrow(Exception):
    """A thrown Java exception carrying its JavaObject."""

    def __init__(self, value: JavaObject):
        self.value = value
        message = value.fields.get("message") if isinstance(value, JavaObject) else None
        super().__init__(f"{value.class_type.name}: {message}")


def default_value(type_: Type):
    if isinstance(type_, PrimitiveType):
        if type_.name == "boolean":
            return False
        if type_.name in ("float", "double"):
            return 0.0
        if type_.name == "char":
            return "\0"
        return 0
    return None


def java_str(value) -> str:
    """Java's string conversion."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, JavaObject):
        peer = value.peer
        if isinstance(peer, (str, bool, int, float)):
            return java_str(peer)
        if isinstance(peer, list) and value.class_type.name.endswith("Vector"):
            return "[" + ", ".join(java_str(v) for v in peer) + "]"
        if peer is not None and hasattr(peer, "java_str"):
            return peer.java_str()
        return f"{value.class_type.name}@{id(value) & 0xFFFF:x}"
    if isinstance(value, JavaArray):
        return f"[{value.element_type}@{id(value) & 0xFFFF:x}"
    return str(value)
