"""Mayans and MetaPrograms.

A Mayan is a semantic action: a multimethod on a grammar production.
Users subclass Mayan, give it a ``result`` symbol and a ``pattern``
(the parameter list, in the paper's surface syntax), and define
``expand``.  Compiling the parameter list — done lazily, against the
environment where the Mayan is first imported — both selects the
production the Mayan implements and builds its dispatch specializers.

A Mayan is itself a MetaProgram whose ``run`` imports it, so ``use``
works uniformly: "A programmer uses the use directive to import
MetaProgram instances into a lexical scope; the argument to use can be
any class that implements MetaProgram" (section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dispatch.specializers import Param
from repro.grammar import Production


class MetaProgram:
    """Something importable with ``use``: updates an environment."""

    #: Name under which ``use`` finds this metaprogram (set on registration).
    use_name: Optional[str] = None

    def run(self, env) -> None:
        raise NotImplementedError

    def __repr__(self):
        return self.use_name or type(self).__name__


class MetaProgramGroup(MetaProgram):
    """Aggregates several metaprograms (like ``maya.util.ForEach``,
    which instantiates and runs each built-in foreach Mayan in turn)."""

    def __init__(self, *members: MetaProgram):
        self.members = list(members)

    def run(self, env) -> None:
        for member in self.members:
            member.run(env)


class Mayan(MetaProgram):
    """A semantic action on a production; subclass and define:

    * ``result`` — the production's left-hand-side symbol name,
    * ``pattern`` — the parameter list (paper syntax),
    * ``expand(self, ctx, **bindings)`` — the body; returns the AST.

    Inside ``expand``, ``ctx.next_rewrite()`` invokes the
    next-most-applicable Mayan (ultimately the built-in action).
    """

    result: str = None
    pattern: str = None

    def __init__(self):
        self._compiled: Optional[Tuple[Production, List[Param], List[str]]] = None

    # -- MetaProgram --------------------------------------------------------

    def run(self, env) -> None:
        self.attach(env)
        env.dispatcher.import_mayan(self)

    # -- compilation -----------------------------------------------------------

    def attach(self, env) -> None:
        """Compile the parameter list against the environment's grammar."""
        if self._compiled is not None:
            return
        if not self.result or self.pattern is None:
            raise ValueError(
                f"{type(self).__name__} must define 'result' and 'pattern'"
            )
        from repro.lalr.tables import tables_for
        from repro.patterns.params import compile_parameter_list
        from repro.patterns.pattern_parser import PatternParseError

        tables = tables_for(env.grammar)
        try:
            self._compiled = compile_parameter_list(tables, self.result,
                                                    self.pattern)
        except PatternParseError as error:
            raise error.owned_by(f"Mayan {type(self).__name__}",
                                 "<pattern>") from None

    @property
    def production(self) -> Optional[Production]:
        return self._compiled[0] if self._compiled else None

    @property
    def params(self) -> List[Param]:
        return self._compiled[1]

    # -- invocation ---------------------------------------------------------

    def invoke(self, ctx, bindings: Dict[str, object], values, location, next_fn):
        call_ctx = MayanCtx(ctx, next_fn, values, location)
        return self.expand(call_ctx, **bindings)

    def expand(self, ctx, **bindings):
        raise NotImplementedError(f"{type(self).__name__}.expand")


class MayanCtx:
    """The context passed to a Mayan body.

    Delegates everything to the compile context and adds
    ``next_rewrite`` (the paper's nextRewrite operator, analogous to
    super calls) plus the raw production values and location.
    """

    def __init__(self, base, next_fn, values, location):
        self._base = base
        self._next_fn = next_fn
        self.values = values
        self.location = location

    def next_rewrite(self):
        """Run the next-most-applicable Mayan (or the base action)."""
        return self._next_fn()

    # Paper-style alias.
    nextRewrite = next_rewrite

    def __getattr__(self, name):
        return getattr(self._base, name)
