"""Implementations of the built-in runtime classes."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.interp.values import JavaArray, JavaObject, java_str


class StreamPeer:
    """Backing state for a PrintStream: captured lines + optional echo."""

    def __init__(self, echo: bool = False):
        self.lines: List[str] = []
        self.current = ""
        self.echo = echo

    def write(self, text: str) -> None:
        while "\n" in text:
            head, text = text.split("\n", 1)
            self.current += head
            self.newline()
        self.current += text

    def newline(self) -> None:
        self.lines.append(self.current)
        if self.echo:
            print(self.current)
        self.current = ""


class EnumerationPeer:
    """A snapshot enumeration over a Python list."""

    def __init__(self, values: List[object]):
        self.values = values
        self.index = 0


class BuiltinTable:
    """(class name, method name) -> implementation."""

    def __init__(self):
        self.methods: Dict[Tuple[str, str], Callable] = {}
        self.constructors: Dict[str, Callable] = {}

    def method(self, class_name: str, method_name: str):
        def register(fn):
            self.methods[(class_name, method_name)] = fn
            return fn

        return register

    def constructor(self, class_name: str):
        def register(fn):
            self.constructors[class_name] = fn
            return fn

        return register

    def find_method(self, class_name: str, method_name: str):
        return self.methods.get((class_name, method_name))

    def find_constructor(self, class_name: str):
        return self.constructors.get(class_name)


def build_table() -> BuiltinTable:
    table = BuiltinTable()

    # -- Object ----------------------------------------------------------

    @table.method("java.lang.Object", "equals")
    def object_equals(interp, obj, args):
        other = args[0]
        if isinstance(obj, JavaObject) and obj.peer is not None:
            peer_other = other.peer if isinstance(other, JavaObject) else other
            return obj.peer == peer_other
        return obj is other

    @table.method("java.lang.Object", "hashCode")
    def object_hash(interp, obj, args):
        peer = obj.peer if isinstance(obj, JavaObject) else obj
        try:
            return hash(peer) & 0x7FFFFFFF
        except TypeError:
            return id(obj) & 0x7FFFFFFF

    @table.method("java.lang.Object", "toString")
    def object_to_string(interp, obj, args):
        return java_str(obj)

    @table.constructor("java.lang.Object")
    def object_ctor(interp, obj, args):
        return None

    # -- String ------------------------------------------------------------

    def string_of(value):
        return value if isinstance(value, str) else value.peer

    @table.method("java.lang.String", "length")
    def string_length(interp, obj, args):
        return len(string_of(obj))

    @table.method("java.lang.String", "charAt")
    def string_char_at(interp, obj, args):
        text = string_of(obj)
        index = args[0]
        if index < 0 or index >= len(text):
            raise interp.throw("java.lang.IndexOutOfBoundsException",
                               f"index {index}")
        return text[index]

    @table.method("java.lang.String", "substring")
    def string_substring(interp, obj, args):
        text = string_of(obj)
        if len(args) == 1:
            return text[args[0]:]
        return text[args[0]:args[1]]

    @table.method("java.lang.String", "indexOf")
    def string_index_of(interp, obj, args):
        return string_of(obj).find(string_of(args[0]))

    @table.method("java.lang.String", "concat")
    def string_concat(interp, obj, args):
        return string_of(obj) + string_of(args[0])

    @table.method("java.lang.String", "toUpperCase")
    def string_upper(interp, obj, args):
        return string_of(obj).upper()

    @table.method("java.lang.String", "toLowerCase")
    def string_lower(interp, obj, args):
        return string_of(obj).lower()

    @table.method("java.lang.String", "equals")
    def string_equals(interp, obj, args):
        other = args[0]
        return isinstance(other, str) and string_of(obj) == other

    @table.method("java.lang.String", "valueOf")
    def string_value_of(interp, obj, args):
        return java_str(args[0])

    # -- StringBuffer -----------------------------------------------------------

    @table.constructor("java.lang.StringBuffer")
    def sb_ctor(interp, obj, args):
        obj.peer = [string_of(args[0])] if args else []

    @table.method("java.lang.StringBuffer", "append")
    def sb_append(interp, obj, args):
        obj.peer.append(java_str(args[0]))
        return obj

    @table.method("java.lang.StringBuffer", "toString")
    def sb_to_string(interp, obj, args):
        return "".join(obj.peer)

    @table.method("java.lang.StringBuffer", "length")
    def sb_length(interp, obj, args):
        return sum(len(part) for part in obj.peer)

    # -- boxed numbers ------------------------------------------------------------

    for box, prim_method in (
        ("java.lang.Integer", "intValue"),
        ("java.lang.Long", "longValue"),
        ("java.lang.Double", "doubleValue"),
        ("java.lang.Boolean", "booleanValue"),
        ("java.lang.Character", "charValue"),
    ):
        @table.constructor(box)
        def box_ctor(interp, obj, args):
            obj.peer = args[0]

        @table.method(box, prim_method)
        def box_value(interp, obj, args):
            return obj.peer

        @table.method(box, "toString")
        def box_to_string(interp, obj, args):
            return java_str(obj.peer)

    @table.method("java.lang.Integer", "parseInt")
    def integer_parse(interp, obj, args):
        try:
            return int(string_of(args[0]))
        except ValueError:
            raise interp.throw("java.lang.IllegalArgumentException",
                               f"bad int {args[0]!r}")

    @table.method("java.lang.Integer", "valueOf")
    def integer_value_of(interp, obj, args):
        return interp.new_builtin("java.lang.Integer", args[0])

    @table.method("java.lang.Double", "parseDouble")
    def double_parse(interp, obj, args):
        return float(string_of(args[0]))

    # -- Math -------------------------------------------------------------------

    @table.method("java.lang.Math", "abs")
    def math_abs(interp, obj, args):
        return abs(args[0])

    @table.method("java.lang.Math", "max")
    def math_max(interp, obj, args):
        return max(args)

    @table.method("java.lang.Math", "min")
    def math_min(interp, obj, args):
        return min(args)

    @table.method("java.lang.Math", "sqrt")
    def math_sqrt(interp, obj, args):
        return float(args[0]) ** 0.5

    # -- System / PrintStream ------------------------------------------------------

    @table.method("java.lang.System", "currentTimeMillis")
    def system_time(interp, obj, args):
        import time

        return int(time.time() * 1000)

    @table.method("java.io.PrintStream", "println")
    def println(interp, obj, args):
        if args:
            obj.peer.write(java_str(args[0]))
        obj.peer.newline()

    @table.method("java.io.PrintStream", "print")
    def print_(interp, obj, args):
        obj.peer.write(java_str(args[0]))

    # -- Throwables ------------------------------------------------------------------

    for klass in ("java.lang.Throwable", "java.lang.Exception",
                  "java.lang.RuntimeException",
                  "java.lang.NullPointerException",
                  "java.lang.ClassCastException",
                  "java.lang.ArithmeticException",
                  "java.lang.IndexOutOfBoundsException",
                  "java.lang.ArrayIndexOutOfBoundsException",
                  "java.lang.IllegalArgumentException",
                  "java.lang.Error",
                  "java.lang.AssertionError",
                  "java.util.NoSuchElementException"):
        @table.constructor(klass)
        def throwable_ctor(interp, obj, args):
            obj.fields["message"] = args[0] if args else None

    @table.method("java.lang.Throwable", "getMessage")
    def get_message(interp, obj, args):
        return obj.fields.get("message")

    # -- java.util.Vector ----------------------------------------------------------------

    @table.constructor("java.util.Vector")
    def vector_ctor(interp, obj, args):
        obj.peer = []

    @table.method("java.util.Vector", "size")
    def vector_size(interp, obj, args):
        return len(obj.peer)

    @table.method("java.util.Vector", "isEmpty")
    def vector_is_empty(interp, obj, args):
        return not obj.peer

    @table.method("java.util.Vector", "elementAt")
    def vector_element_at(interp, obj, args):
        index = args[0]
        if index < 0 or index >= len(obj.peer):
            raise interp.throw("java.lang.IndexOutOfBoundsException",
                               f"index {index}")
        return obj.peer[index]

    table.methods[("java.util.Vector", "get")] = vector_element_at

    @table.method("java.util.Vector", "addElement")
    def vector_add_element(interp, obj, args):
        obj.peer.append(args[0])

    @table.method("java.util.Vector", "add")
    def vector_add(interp, obj, args):
        obj.peer.append(args[0])
        return True

    @table.method("java.util.Vector", "contains")
    def vector_contains(interp, obj, args):
        return args[0] in obj.peer

    @table.method("java.util.Vector", "elements")
    def vector_elements(interp, obj, args):
        enum = interp.new_builtin("java.util.Enumeration")
        enum.peer = EnumerationPeer(list(obj.peer))
        return enum

    # -- maya.util.Vector -------------------------------------------------------------

    @table.constructor("maya.util.Vector")
    def maya_vector_ctor(interp, obj, args):
        obj.peer = []

    @table.method("maya.util.Vector", "getElementData")
    def maya_vector_data(interp, obj, args):
        object_type = interp.registry.require("java.lang.Object")
        return JavaArray(object_type, obj.peer)

    # -- Enumeration --------------------------------------------------------------------

    @table.method("java.util.Enumeration", "hasMoreElements")
    def enum_has_more(interp, obj, args):
        return obj.peer.index < len(obj.peer.values)

    @table.method("java.util.Enumeration", "nextElement")
    def enum_next(interp, obj, args):
        peer = obj.peer
        if peer.index >= len(peer.values):
            raise interp.throw("java.util.NoSuchElementException", None)
        value = peer.values[peer.index]
        peer.index += 1
        return value

    # -- Hashtable ------------------------------------------------------------------------

    @table.constructor("java.util.Hashtable")
    def hashtable_ctor(interp, obj, args):
        obj.peer = {}

    @table.method("java.util.Hashtable", "put")
    def hashtable_put(interp, obj, args):
        key = _hash_key(args[0])
        previous = obj.peer.get(key, (None, None))
        obj.peer[key] = (args[0], args[1])
        return previous[1]

    @table.method("java.util.Hashtable", "get")
    def hashtable_get(interp, obj, args):
        entry = obj.peer.get(_hash_key(args[0]))
        return entry[1] if entry else None

    @table.method("java.util.Hashtable", "remove")
    def hashtable_remove(interp, obj, args):
        entry = obj.peer.pop(_hash_key(args[0]), None)
        return entry[1] if entry else None

    @table.method("java.util.Hashtable", "containsKey")
    def hashtable_contains(interp, obj, args):
        return _hash_key(args[0]) in obj.peer

    @table.method("java.util.Hashtable", "size")
    def hashtable_size(interp, obj, args):
        return len(obj.peer)

    @table.method("java.util.Hashtable", "keys")
    def hashtable_keys(interp, obj, args):
        enum = interp.new_builtin("java.util.Enumeration")
        enum.peer = EnumerationPeer([entry[0] for entry in obj.peer.values()])
        return enum

    return table


def _hash_key(value):
    if isinstance(value, JavaObject):
        if value.peer is not None and isinstance(value.peer, (str, int, float, bool)):
            return value.peer
        return id(value)
    return value


#: The one table of the process: its implementations keep no state, so
#: every interpreter shares it.
BUILTINS = build_table()
