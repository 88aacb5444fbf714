"""The type registry: qualified names to ClassType objects.

A registry is the "class pool" a compilation environment resolves names
against.  It understands packages, single-type imports, and on-demand
imports; ``java.lang`` is always imported on demand, as in Java.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.types.types import (
    ClassType,
    PRIMITIVES,
    Type,
    TypeError_,
    array_of,
)


class TypeRegistry:
    """Maps qualified class names to types and resolves source names.

    ``memo`` holds what callers derive from this registry's types
    (compiled templates, resolved specializer types), keyed by the
    caller's object.  Type identity is per registry, so such a memo
    belongs to the registry and is freed with it.
    """

    def __init__(self):
        self.classes: Dict[str, ClassType] = {}
        self.memo: Dict[object, object] = {}
        # Bumped on every definition: caches of type-dependent decisions
        # (dispatch specificity orders) key on (registry, version) so a
        # class declared mid-compile can change subtype-based outcomes.
        self.version = 0

    # -- registration -------------------------------------------------------

    def define(self, class_type: ClassType) -> ClassType:
        self.classes[class_type.name] = class_type
        self.version += 1
        return class_type

    def declare(self, name: str, superclass: Optional[str] = None,
                interfaces: Sequence[str] = (), is_interface: bool = False,
                modifiers: Sequence[str] = ()) -> ClassType:
        super_type = self.classes[superclass] if superclass else None
        iface_types = [self.classes[i] for i in interfaces]
        return self.define(
            ClassType(name, super_type, iface_types, is_interface, modifiers)
        )

    # -- lookup ----------------------------------------------------------------

    def get(self, qualified_name: str) -> Optional[ClassType]:
        return self.classes.get(qualified_name)

    def require(self, qualified_name: str) -> ClassType:
        found = self.classes.get(qualified_name)
        if found is None:
            raise TypeError_(f"unknown class {qualified_name}")
        return found

    def resolve(
        self,
        parts: Sequence[str],
        imports: Sequence[Tuple[Tuple[str, ...], bool]] = (),
        current_package: str = "",
    ) -> Optional[ClassType]:
        """Resolve a dotted name against imports and packages.

        ``imports`` is a list of (parts, on_demand) pairs.  Resolution
        order (JLS-ish): exact qualified name, current package, single
        imports, on-demand imports, java.lang, default package.
        """
        name = ".".join(parts)
        if name in self.classes:
            return self.classes[name]
        if len(parts) == 1:
            simple = parts[0]
            if current_package:
                found = self.classes.get(f"{current_package}.{simple}")
                if found is not None:
                    return found
            for import_parts, on_demand in imports:
                if not on_demand and import_parts[-1] == simple:
                    return self.classes.get(".".join(import_parts))
            hits = []
            for import_parts, on_demand in imports:
                if on_demand:
                    found = self.classes.get(".".join(import_parts) + "." + simple)
                    if found is not None:
                        hits.append(found)
            if len(hits) > 1:
                raise TypeError_(f"ambiguous on-demand import for {simple}")
            if hits:
                return hits[0]
            found = self.classes.get(f"java.lang.{simple}")
            if found is not None:
                return found
            return self.classes.get(simple)
        return None

    def resolve_type(
        self,
        parts: Sequence[str],
        dims: int = 0,
        imports: Sequence[Tuple[Tuple[str, ...], bool]] = (),
        current_package: str = "",
    ) -> Type:
        """Resolve a syntactic type (name or primitive, plus dims)."""
        if len(parts) == 1 and parts[0] in PRIMITIVES:
            base: Type = PRIMITIVES[parts[0]]
        else:
            resolved = self.resolve(parts, imports, current_package)
            if resolved is None:
                raise TypeError_(f"unknown type {'.'.join(parts)}")
            base = resolved
        return array_of(base, dims) if dims else base

    def parse_type(
        self,
        spec: str,
        imports: Sequence[Tuple[Tuple[str, ...], bool]] = (),
        package: str = "",
    ) -> Type:
        """Resolve a type's ``str`` spelling (``int``, ``void``,
        ``java.lang.Object[]``)."""
        dims = 0
        while spec.endswith("[]"):
            spec = spec[:-2]
            dims += 1
        return self.resolve_type(tuple(spec.split(".")), dims, imports,
                                 package)
