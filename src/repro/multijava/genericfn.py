"""Generic functions, multimethods, and dispatcher generation.

``GenericFunction`` and ``MultiMethod`` mirror the classes of the same
names in the paper's implementation (section 5.2): they "store
information that is used to ensure that generic function definitions
cannot produce dispatch errors, and to compute the method of super
sends from multimethods".  ``GenericFunction.dispatch_expr`` is the
paper's figure-8 ``dispatchArg``: a recursive generation of nested
``instanceof`` conditionals, subclasses tested before superclasses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.diag import DiagnosticError
from repro.ast import nodes as n
from repro.patterns import Template
from repro.types import ClassType, Type
from repro.types.types import weak_attribute


class MultiJavaError(DiagnosticError):
    """A MultiJava restriction or completeness violation."""

    phase = "check"


class MultiMethod:
    """One method implementation within a generic function.

    ``specializers[i]`` is the runtime class the i-th argument is
    narrowed to, or None when the argument is unspecialized (the static
    parameter type applies).  ``decl`` is weak: the declaration belongs
    to its class body (or its program), and the metaprogram that holds
    this generic function lives on the environment the declaration's
    scopes lead to.
    """

    decl = weak_attribute("decl")

    def __init__(self, decl: n.MethodDecl, owner: ClassType,
                 param_types: Sequence[Type],
                 specializers: Sequence[Optional[ClassType]],
                 impl_name: str, external: bool = False):
        self.decl = decl
        self.owner = owner
        self.param_types = list(param_types)
        self.specializers = list(specializers)
        self.impl_name = impl_name
        self.external = external

    def effective_types(self) -> List[Type]:
        return [
            spec if spec is not None else base
            for spec, base in zip(self.specializers, self.param_types)
        ]

    def more_specific_than(self, other: "MultiMethod") -> bool:
        mine = self.effective_types()
        theirs = other.effective_types()
        return all(a.is_subtype_of(b) for a, b in zip(mine, theirs)) and \
            mine != theirs

    def __repr__(self):
        types = ", ".join(str(t) for t in self.effective_types())
        return f"<multimethod {self.owner.simple_name}.{self.impl_name}({types})>"


_COND_TEMPLATE = Template(
    "Expression",
    "($ref instanceof $type) ? $then : $else",
    ref="Expression",
    type="TypeName",
    then="Expression",
    **{"else": "Expression"},
)


class GenericFunction:
    """All multimethods sharing a receiver class, name, and base
    parameter types."""

    def __init__(self, owner: ClassType, name: str,
                 param_types: Sequence[Type], return_type: Type):
        self.owner = owner
        self.name = name
        self.param_types = list(param_types)
        self.return_type = return_type
        self.methods: List[MultiMethod] = []

    def add(self, method: MultiMethod) -> None:
        self.methods.append(method)

    # -- static checks (paper 5.1: MultiJava's restrictions) -------------

    def check(self) -> None:
        self._check_specializers()
        self._check_completeness()
        self._check_ambiguity()

    def _check_specializers(self) -> None:
        for method in self.methods:
            for spec, base in zip(method.specializers, method.param_types):
                if spec is None:
                    continue
                if not isinstance(base, ClassType):
                    raise MultiJavaError(
                        f"{self.describe()}: only class-typed parameters "
                        f"may be specialized (got {base})"
                    )
                if not isinstance(spec, ClassType) or spec.is_interface:
                    raise MultiJavaError(
                        f"{self.describe()}: specializers must be classes "
                        f"(got {spec})"
                    )
                if not spec.is_subtype_of(base) or spec is base:
                    raise MultiJavaError(
                        f"{self.describe()}: specializer {spec.simple_name} "
                        f"must be a proper subclass of {base}"
                    )

    def _check_completeness(self) -> None:
        # "A concrete class must define or inherit multimethods for all
        # argument types": there must be a method applicable to the
        # declared (top) parameter types.
        if not any(
            all(spec is None for spec in method.specializers)
            for method in self.methods
        ):
            raise MultiJavaError(
                f"{self.describe()}: no method covers the full argument "
                f"types {[str(t) for t in self.param_types]}"
            )

    def _check_ambiguity(self) -> None:
        # Any two methods that can both apply to some call must be
        # ordered.  With class-only specializers, both apply only when
        # each argument position's types are related.
        for index, left in enumerate(self.methods):
            for right in self.methods[index + 1:]:
                if not _can_overlap(left, right):
                    continue
                if left.more_specific_than(right) or \
                        right.more_specific_than(left):
                    continue
                if left.effective_types() == right.effective_types():
                    raise MultiJavaError(
                        f"{self.describe()}: duplicate multimethods "
                        f"{left} and {right}"
                    )
                raise MultiJavaError(
                    f"{self.describe()}: ambiguous multimethods "
                    f"{left} and {right} (neither is more specific)"
                )

    def describe(self) -> str:
        return f"{self.owner.simple_name}.{self.name}"

    # -- dispatcher generation (figure 8) -----------------------------------

    def dispatch_expr(self, ctx, formal_names: List[str]) -> n.Expression:
        """Generate the dispatcher body expression.

        Mirrors figure 8: recurse over arguments left to right; at each
        specialized position, sort the observed specializers subclasses
        first and emit instanceof tests right to left (superclass cases
        innermost).
        """
        applicable = sorted(
            self.methods,
            key=lambda m: sum(1 for s in m.specializers if s is not None),
        )
        return self._dispatch_arg(ctx, formal_names, list(applicable), 0)

    def _dispatch_arg(self, ctx, formal_names: List[str],
                      applicable: List[MultiMethod], index: int) -> n.Expression:
        if index == len(formal_names) or len(applicable) == 1:
            most_specific = _most_specific(applicable)
            return self._call(most_specific, formal_names)

        # Tie-break equal-depth specializers by name so the generated
        # dispatcher source is deterministic (sets iterate in id order).
        specializers = sorted(
            {m.specializers[index] for m in applicable
             if m.specializers[index] is not None},
            key=lambda klass: (len(klass.ancestors()), klass.name),
        )
        if not specializers:
            return self._dispatch_arg(ctx, formal_names, applicable, index + 1)

        # The default branch: methods unspecialized at this position.
        default = [m for m in applicable if m.specializers[index] is None]
        ret = self._dispatch_arg(ctx, formal_names, default, index + 1)

        # Generate superclass cases first (right to left), so subclasses
        # are tested before superclasses.
        for spec in specializers:
            subset = [
                m for m in applicable
                if m.specializers[index] is None
                or spec.is_subtype_of(m.specializers[index])
            ]
            ref = n.NameExpr((formal_names[index],))
            ret = ctx.instantiate(
                _COND_TEMPLATE,
                ref=ref,
                type=n.StrictTypeName.make(spec),
                then=self._dispatch_arg(ctx, formal_names, subset, index + 1),
                **{"else": ret},
            )
        return ret

    def _call(self, method: MultiMethod, formal_names: List[str]) -> n.Expression:
        args: List[n.Expression] = []
        for name, spec, base in zip(formal_names, method.specializers,
                                    method.param_types):
            arg: n.Expression = n.NameExpr((name,))
            if spec is not None:
                arg = n.CastExpr(n.StrictTypeName.make(spec), arg)
            args.append(arg)
        return n.MethodInvocation(
            n.MethodName(n.ThisExpr(), (method.impl_name,)),
            args,
        )

    # -- super sends ----------------------------------------------------------

    def next_applicable(self, current: MultiMethod) -> MultiMethod:
        """The next-most-applicable method after ``current``: used to
        translate super sends in multimethods (paper 5.1: "a super call
        in a multimethod selects the next applicable method")."""
        candidates = [
            m for m in self.methods
            if m is not current and current.more_specific_than(m)
        ]
        if not candidates:
            raise MultiJavaError(
                f"{self.describe()}: no next applicable method after "
                f"{current}"
            )
        return _most_specific(candidates)


def _most_specific(methods: List[MultiMethod]) -> MultiMethod:
    best = methods[0]
    for method in methods[1:]:
        if method.more_specific_than(best):
            best = method
    return best


def _can_overlap(left: MultiMethod, right: MultiMethod) -> bool:
    for a, b in zip(left.effective_types(), right.effective_types()):
        if not (a.is_subtype_of(b) or b.is_subtype_of(a)):
            return False
    return True
