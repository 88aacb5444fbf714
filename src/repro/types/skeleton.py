"""Class skeletons: classes that reach the compiler as signatures only.

Two kinds of class arrive without source, as class files do in Java:
the builtin library (:mod:`repro.types.builtins`) and a cached module's
classes, whose importers need its names, supertypes and member
signatures but not its method bodies.  Both are one record format,
installed by one function.

A skeleton is ``[name, superclass, interfaces, is_interface, modifiers,
members]``: qualified class names (``superclass`` may be None), a
flag, and modifier strings.  Each member is ``[kind, name, params,
type, modifiers]`` with ``kind`` one of ``field``, ``method`` and
``ctor``.  Every type is its ``str`` spelling (``int``,
``java.lang.Object[]``), parsed by :meth:`TypeRegistry.parse_type`; a
field has no params, and a constructor's name is empty and its type
``void``.  The builtin table is Python tuples; a cache entry is JSON
lists, checked by :func:`validate` before it is installed.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.types.registry import TypeRegistry
from repro.types.types import ClassType

_KINDS = ("field", "method", "ctor")


def export(classes: Sequence[ClassType]) -> List[list]:
    """The skeletons of ``classes``."""
    out: List[list] = []
    for klass in classes:
        members: List[list] = [
            ["field", field.name, [], str(field.type), list(field.modifiers)]
            for field in klass.fields.values()]
        members += [
            ["method", method.name, [str(p) for p in method.param_types],
             str(method.return_type), list(method.modifiers)]
            for bucket in klass.methods.values() for method in bucket]
        members += [
            ["ctor", "", [str(p) for p in ctor.param_types], "void",
             list(ctor.modifiers)]
            for ctor in klass.constructors]
        out.append([
            klass.name,
            klass.superclass.name if klass.superclass is not None else None,
            [i.name for i in klass.interfaces],
            klass.is_interface,
            list(klass.modifiers),
            members,
        ])
    return out


def validate(skeletons) -> None:
    """Raise ``ValueError`` unless ``skeletons`` is a list of
    well-formed records.

    :func:`install` writes straight into a registry, so a skeleton read
    back from disk passes this first: a truncated or hand-edited record
    is rejected here, and its cache entry quarantined, instead of
    failing halfway through installing."""
    if not isinstance(skeletons, list):
        raise ValueError("skeletons are not a list")
    for record in skeletons:
        if not isinstance(record, list) or len(record) != 6:
            raise ValueError("a skeleton is not a 6-element list")
        name, superclass, interfaces, is_interface, modifiers, members = \
            record
        if not (isinstance(name, str)
                and (superclass is None or isinstance(superclass, str))
                and isinstance(is_interface, bool)
                and isinstance(members, list)):
            raise ValueError(f"malformed skeleton of {name!r}")
        _check_strings(name, interfaces, modifiers)
        for member in members:
            if not isinstance(member, list) or len(member) != 5:
                raise ValueError(f"a member of {name!r} is not a "
                                 "5-element list")
            kind, member_name, params, type_, member_modifiers = member
            if kind not in _KINDS:
                raise ValueError(f"unknown member kind {kind!r} in {name!r}")
            if not (isinstance(member_name, str) and isinstance(type_, str)):
                raise ValueError(f"malformed member of {name!r}")
            _check_strings(name, params, member_modifiers)


def _check_strings(owner, *lists) -> None:
    for strings in lists:
        if not isinstance(strings, list):
            raise ValueError(f"a list in {owner!r} is not a list")
        for item in strings:
            if not isinstance(item, str):
                raise ValueError(f"{item!r} in {owner!r} is not a string")


class _Types(dict):
    """Type spellings to types, each parsed once per :func:`install`."""

    def __init__(self, registry: TypeRegistry):
        super().__init__()
        self.registry = registry

    def __missing__(self, spec: str):
        found = self[spec] = self.registry.parse_type(spec)
        return found


def install(registry: TypeRegistry, skeletons) -> TypeRegistry:
    """Define the classes of ``skeletons`` in ``registry`` and return it.

    Two passes: every name is defined first, then supertypes and
    members are wired, so records may come in any order and refer to
    each other."""
    classes = []
    for name, _, _, is_interface, modifiers, _ in skeletons:
        classes.append(registry.define(ClassType(
            name, is_interface=is_interface, modifiers=modifiers)))
    types = _Types(registry)
    for klass, (_, superclass, interfaces, _, _, members) in zip(
            classes, skeletons):
        if superclass is not None:
            klass.superclass = registry.require(superclass)
        for name in interfaces:
            klass.interfaces.append(registry.require(name))
        for kind, name, params, type_, modifiers in members:
            if kind == "field":
                klass.declare_field(name, types[type_], modifiers)
            elif kind == "method":
                klass.declare_method(name, [types[p] for p in params],
                                     types[type_], modifiers)
            else:
                klass.declare_constructor([types[p] for p in params],
                                          modifiers)
    return registry
