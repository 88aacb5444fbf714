"""Lexical scopes and bindings."""

from __future__ import annotations

from typing import Dict, Optional

from repro.types import ClassType, Type


class Binding:
    """A named value binding (local variable or parameter).  It does
    not point at its declaring node: scopes are owned by the syntax
    that carries them, never the other way round."""

    __slots__ = ("name", "type", "kind")

    def __init__(self, name: str, type_: Type, kind: str = "local"):
        self.name = name
        self.type = type_
        self.kind = kind

    def __repr__(self):
        return f"<{self.kind} {self.name}: {self.type}>"


class Scope:
    """A lexical scope chain.

    The root scope of a compilation carries the environment (registry,
    imports, package); method scopes carry the owning class and ``this``
    type; block scopes nest.
    """

    __slots__ = ("parent", "bindings", "env", "owner", "this_type",
                 "return_type", "static_context")

    def __init__(self, parent: Optional["Scope"] = None, env=None):
        self.parent = parent
        self.bindings: Dict[str, Binding] = {}
        self.env = env if env is not None else (parent.env if parent else None)
        self.owner: Optional[ClassType] = parent.owner if parent else None
        self.this_type: Optional[ClassType] = parent.this_type if parent else None
        self.return_type: Optional[Type] = parent.return_type if parent else None
        self.static_context: bool = parent.static_context if parent else False

    def child(self) -> "Scope":
        return Scope(self)

    def method_scope(self, owner: ClassType, static: bool,
                     return_type: Type) -> "Scope":
        scope = Scope(self)
        scope.owner = owner
        scope.this_type = None if static else owner
        scope.static_context = static
        scope.return_type = return_type
        return scope

    def class_scope(self, owner: ClassType) -> "Scope":
        scope = Scope(self)
        scope.owner = owner
        scope.this_type = owner
        return scope

    def define(self, name: str, type_: Type, kind: str = "local") -> Binding:
        binding = Binding(name, type_, kind)
        self.bindings[name] = binding
        return binding

    def lookup(self, name: str) -> Optional[Binding]:
        scope: Optional[Scope] = self
        while scope is not None:
            binding = scope.bindings.get(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None
