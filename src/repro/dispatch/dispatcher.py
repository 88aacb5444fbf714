"""The Mayan dispatcher.

Selection rules (paper 4.4):

* applicability — every parameter matches (node types, token values,
  static types, substructure);
* symmetric specificity — a Mayan is more specific only if it is at
  least as specific on *every* parameter and strictly more specific on
  one; two Mayans each more specific on different parameters are
  ambiguous, and an error is signaled;
* lexical tie-breaking — among equally specific applicable Mayans, the
  one imported *later* wins.  Built-in (base) semantic actions are
  imported first, which is why user Mayans transparently override base
  syntax;
* ``nextRewrite`` — a Mayan body may delegate to the next-most-
  applicable Mayan, like ``super`` in methods.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import trace
from repro.diag import (
    DEFAULT_EXPANSION_DEPTH,
    DEFAULT_MAYAN_REENTRY,
    Diagnostic,
    DiagnosticError,
    SourceSpan,
)
from repro.grammar import Production
from repro.lexer import Location
from repro.obs.metrics import CACHE_EVENTS, REGISTRY
from repro.dispatch.specializers import (
    CROSS,
    EQUAL,
    LESS,
    MORE,
    compare_params,
    match_params,
)

_PLAN_HIT = CACHE_EVENTS.labels("dispatch.plans", "hit")
_PLAN_MISS = CACHE_EVENTS.labels("dispatch.plans", "miss")
_ORDER_HIT = CACHE_EVENTS.labels("dispatch.orders", "hit")
_ORDER_MISS = CACHE_EVENTS.labels("dispatch.orders", "miss")

#: Reductions routed through the dispatcher, split by whether any Mayan
#: was in scope (children bound once: the hot path pays one inc).
_DISPATCH_TOTAL = REGISTRY.counter(
    "maya_dispatch_reductions_total",
    "Reductions routed through the Mayan dispatcher, by path.",
    ("path",))
_DISPATCH_FAST = _DISPATCH_TOTAL.labels("base")
_DISPATCH_MAYAN = _DISPATCH_TOTAL.labels("mayan")

#: Unit reductions the parse driver took as one step instead of
#: dispatching (see :meth:`Dispatcher.skip_units`); with the family
#: above, it accounts for every reduction of the automaton.
_UNITS_SKIPPED = REGISTRY.counter(
    "maya_parser_unit_reductions_skipped_total",
    "Unit reductions skipped by the parse driver's chain shortcut.",
).labels()


def identity(ctx, values, location):
    """The base action of a ``passthrough`` production: its operand."""
    return values[0]


class DispatchError(DiagnosticError):
    """A Mayan dispatch failure."""

    phase = "dispatch"


class AmbiguousDispatchError(DispatchError):
    """Two applicable Mayans are more specific on different arguments."""


class NoApplicableMayanError(DispatchError):
    """A production reduced but no semantic action applies.

    The paper: "if no Mayans are declared on a new production ... an
    error is signaled [when] input causes the production to reduce."
    """


class ExpansionTooDeepError(DispatchError):
    """A Mayan expansion chain exhausted its fuel budget — either too
    many nested activations overall, or one Mayan re-triggering itself
    (the classic self-recursive template bomb)."""

    phase = "expand"

    def __init__(self, message: str, location: Location, chain: List[str]):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.chain = list(chain)
        self.diagnostic = Diagnostic(
            message, phase="expand",
            span=SourceSpan.from_location(location),
            backtrace=self.chain, cause=self,
        )


class MayanExpansionError(DispatchError):
    """A Python exception escaped a user Mayan's ``expand`` body.

    Mayans are user code running inside the compiler; their bugs must
    surface as located diagnostics naming the Mayan, not as raw Python
    tracebacks out of mayac."""

    phase = "expand"

    def __init__(self, mayan, location: Location, cause: BaseException,
                 chain: List[str]):
        message = (f"Python error in Mayan {mayan}: "
                   f"{type(cause).__name__}: {cause}")
        super().__init__(f"{location}: {message}")
        self.location = location
        self.mayan = mayan
        self.chain = list(chain)
        self.diagnostic = Diagnostic(
            message, phase="expand",
            span=SourceSpan.from_location(location),
            backtrace=self.chain, cause=self,
        )


class _DispatchPlan:
    """Per-(dispatcher scope, production) precomputed dispatch data.

    ``candidates`` is the import-ordered Mayan chain visible from this
    scope, frozen at plan-build time; ``orders`` caches the outcome of
    the O(n²) specificity ordering keyed by which candidates matched
    (a bitmask) plus the type-registry state the comparison ran under.
    ``epoch`` ties the plan to the dispatcher tree's import epoch so
    a later ``import_mayan`` anywhere in the tree invalidates it.
    """

    __slots__ = ("epoch", "candidates", "orders")

    def __init__(self, epoch: int, candidates: Tuple):
        self.epoch = epoch
        self.candidates = candidates
        self.orders: Dict[Tuple, object] = {}


class _AmbiguityRecord:
    """A cached ambiguous outcome for one applicability mask: the pair
    of crossing Mayans, re-raised with the current dispatch location."""

    __slots__ = ("mayan_a", "mayan_b")

    def __init__(self, mayan_a, mayan_b):
        self.mayan_a = mayan_a
        self.mayan_b = mayan_b


class DispatchTree:
    """What every scope of one dispatcher tree shares.  Its own object,
    not the root dispatcher, so that no dispatcher refers to itself."""

    __slots__ = ("_epoch", "expansion_stack", "origin_stack")

    def __init__(self):
        # Import epoch for the whole dispatcher tree: bumped by any
        # import_mayan so every scope's cached plans go stale.
        self._epoch = 0
        # Active Mayan activations, shared so nested ``use`` scopes
        # share one fuel budget.
        self.expansion_stack: List[Tuple[object, Location]] = []
        # Provenance context, parallel to the expansion stack: the
        # Origin of the innermost active Mayan activation.  Nodes
        # reduced while this is non-empty are stamped with its top.
        self.origin_stack: List[trace.Origin] = []


class Dispatcher:
    """An import-ordered registry of Mayans, lexically scoped.

    ``child()`` makes a nested scope: imports in the child do not leak
    to the parent, which implements the lexical scoping of ``use``.
    """

    def __init__(self, base_actions: Dict[Production, Callable],
                 parent: Optional["Dispatcher"] = None):
        self.base_actions = base_actions
        self.parent = parent
        #: The state the whole dispatcher tree shares.
        self.root = parent.root if parent is not None else DispatchTree()
        self._chains: Dict[Production, List] = {}
        self._plans: Dict[Production, _DispatchPlan] = {}
        # (epoch, {unit chain: skippable?}) for skip_units.
        self._unit_verdicts: Tuple[int, Dict] = (-1, {})

    def child(self) -> "Dispatcher":
        return Dispatcher(self.base_actions, parent=self)

    # -- registration -------------------------------------------------------

    def import_mayan(self, mayan) -> None:
        """Append a Mayan to its production's chain (import order)."""
        production = mayan.production
        if production is None:
            raise DispatchError(f"Mayan {mayan} was not attached to a production")
        self._chains.setdefault(production, []).append(mayan)
        self.root._epoch += 1

    def mayans_for(self, production: Production) -> List:
        """All imported Mayans for a production, outermost scope first."""
        if self.parent is not None:
            out = self.parent.mayans_for(production)
        else:
            out = []
        out.extend(self._chains.get(production, ()))
        return out

    # -- selection ------------------------------------------------------------

    def plan_for(self, production: Production) -> _DispatchPlan:
        """The current dispatch plan for a production in this scope."""
        root = self.root
        plan = self._plans.get(production)
        if plan is None or plan.epoch != root._epoch:
            plan = _DispatchPlan(root._epoch, tuple(self.mayans_for(production)))
            self._plans[production] = plan
            _PLAN_MISS.inc()
        else:
            _PLAN_HIT.inc()
        return plan

    def skip_units(self, productions: Tuple[Production, ...]) -> bool:
        """Whether the parse driver may skip a chain of unit reductions:
        every production's base action is :func:`identity` and no Mayan
        on it is visible from this scope.  Verdicts are cached per chain
        until the tree's import epoch moves; a yes is counted as the
        chain's reductions skipped."""
        epoch = self.root._epoch
        cached_epoch, verdicts = self._unit_verdicts
        if cached_epoch != epoch:
            verdicts = {}
            self._unit_verdicts = (epoch, verdicts)
        verdict = verdicts.get(productions)
        if verdict is None:
            base_actions = self.base_actions
            verdict = verdicts[productions] = all(
                base_actions.get(production) is identity
                and not self.mayans_for(production)
                for production in productions
            )
        if verdict:
            _UNITS_SKIPPED.value += len(productions)
        return verdict

    def dispatch(self, production: Production, values: List[object],
                 location: Location, ctx) -> object:
        """Run the most applicable semantic action for a reduction."""
        plan = self.plan_for(production)

        if not plan.candidates:
            # Fast path: no Mayans imported on this production anywhere
            # in scope — go straight to the built-in action with no
            # list/closure allocation and no specificity work.
            _DISPATCH_FAST.value += 1
            base = self.base_actions.get(production)
            if base is not None:
                return base(ctx, values, location)
            raise NoApplicableMayanError(
                f"{location}: no semantic action applies to [{production}]"
            )

        _DISPATCH_MAYAN.value += 1
        candidates = plan.candidates
        mask = 0
        bindings_at: List[Optional[Dict[str, object]]] = []
        for position, mayan in enumerate(candidates):
            bindings: Dict[str, object] = {}
            if match_params(mayan.params, values, ctx, bindings):
                mask |= 1 << position
                bindings_at.append(bindings)
            else:
                bindings_at.append(None)

        order = self._ordered_positions(plan, mask, bindings_at, ctx,
                                        production, location)
        chain = [(candidates[position], bindings_at[position])
                 for position in order]

        base = self.base_actions.get(production)
        root = self.root
        stack = root.expansion_stack
        origins = root.origin_stack
        engine = getattr(getattr(ctx, "env", None), "diag", None)
        depth_limit = getattr(engine, "max_expansion_depth",
                              DEFAULT_EXPANSION_DEPTH)
        reentry_limit = getattr(engine, "max_mayan_reentry",
                                DEFAULT_MAYAN_REENTRY)
        tracer = trace.current()

        def run(index: int):
            if index < len(chain):
                mayan, bindings = chain[index]
                if engine is not None:
                    # Wall-clock deadline composes with the fuel budget:
                    # each Mayan activation is a cooperative checkpoint.
                    engine.check_deadline()
                self._check_fuel(mayan, location, stack,
                                 depth_limit, reentry_limit)
                # One Origin per activation, on the dispatch hot path:
                # pass the raw Mayan and Location (Origin stringifies /
                # spans them lazily) and only walk the stack for a use
                # site when the activation has no source position.
                site = location if getattr(location, "line", 0) > 0 \
                    else trace.use_site_span(location, stack)
                origin = trace.Origin(
                    mayan, None, site, origins[-1] if origins else None,
                )
                stack.append((mayan, location))
                origins.append(origin)
                span = tracer.begin(
                    "expand", str(mayan), mayan=str(mayan),
                    production=str(production), location=str(location),
                    depth=len(stack), before=_preview_values(values),
                ) if tracer is not None else None
                try:
                    result = mayan.invoke(ctx, bindings, values, location,
                                          lambda: run(index + 1))
                    if span is not None:
                        tracer.end(span, after=_preview(result))
                    return result
                except DiagnosticError:
                    if span is not None:
                        tracer.end(span, error=True)
                    raise
                except Exception as error:
                    # A metaprogram bug is still a *compile* error: name
                    # the Mayan and locate the activation instead of
                    # letting a raw Python traceback escape mayac.
                    if span is not None:
                        tracer.end(span, error=True)
                    raise MayanExpansionError(
                        mayan, location, error, _chain_entries(stack)
                    ) from error
                finally:
                    stack.pop()
                    origins.pop()
            if base is not None:
                return base(ctx, values, location)
            raise NoApplicableMayanError(
                f"{location}: no semantic action applies to [{production}]"
            )

        try:
            if tracer is not None:
                with tracer.span("dispatch", str(production),
                                 production=str(production),
                                 location=str(location),
                                 candidates=len(candidates),
                                 applicable=len(chain)):
                    return run(0)
            return run(0)
        finally:
            # ``run`` reaches itself through its closure cell; emptying
            # the cell lets reference counting free the activation.
            del run

    def _ordered_positions(self, plan: _DispatchPlan, mask: int,
                           bindings_at, ctx, production: Production,
                           location: Location) -> Tuple[int, ...]:
        """Candidate positions, most-specific first, via the order cache.

        For a fixed applicable subset (the mask) the specificity partial
        order cannot change unless the type registry learns new classes,
        so the ordering — including an ambiguous outcome — is cached per
        (mask, registry state) and dispatch degenerates to matching plus
        one dict lookup.
        """
        registry = getattr(ctx, "registry", None)
        order_key = (mask, registry, getattr(registry, "version", None))
        cached = plan.orders.get(order_key)
        if cached is None:
            _ORDER_MISS.inc()
            applicable = [
                (position, plan.candidates[position], bindings_at[position])
                for position in range(len(plan.candidates))
                if mask >> position & 1
            ]
            try:
                cached = _order_chain(applicable, ctx, production, location)
            except AmbiguousDispatchError as error:
                plan.orders[order_key] = _AmbiguityRecord(
                    error.mayan_a, error.mayan_b
                )
                raise
            plan.orders[order_key] = cached
        else:
            _ORDER_HIT.inc()
            if isinstance(cached, _AmbiguityRecord):
                raise _ambiguity_error(
                    location, production, cached.mayan_a, cached.mayan_b
                )
        return cached

    @staticmethod
    def _check_fuel(mayan, location: Location, stack,
                    depth_limit: int, reentry_limit: int) -> None:
        """The expansion guard rails (fuel + re-entrant cycle detector).

        The re-entry check trips a self-recursive Mayan after a few
        activations; the overall depth budget catches mutual-recursion
        chains where no single Mayan dominates."""
        if len(stack) >= depth_limit:
            raise ExpansionTooDeepError(
                f"expansion too deep: {len(stack)} nested Mayan "
                f"activations exceed the fuel budget of {depth_limit} "
                f"(raise it with --fuel if the expansion is legitimate)",
                _located(location, stack), _chain_entries(stack),
            )
        reentries = sum(1 for active, _ in stack if active is mayan)
        if reentries >= reentry_limit:
            raise ExpansionTooDeepError(
                f"expansion too deep: Mayan {mayan} re-entered "
                f"{reentries} times — its expansion appears to trigger "
                f"itself",
                _located(location, stack), _chain_entries(stack),
            )


def _preview(value, limit: int = 200) -> str:
    """A one-line unparse of a rewrite result for trace attrs."""
    try:
        from repro.ast import nodes as n
        from repro.ast import to_source

        if isinstance(value, (n.Node, list)):
            text = to_source(value)
        elif hasattr(value, "source_text"):
            text = value.source_text()
        else:
            text = str(value)
    except Exception:
        text = f"<{type(value).__name__}>"
    text = " ".join(text.split())
    return text[:limit] + "..." if len(text) > limit else text


def _preview_values(values, limit: int = 200) -> str:
    """The production's right-hand-side values as one source-ish line."""
    return " ".join(_preview(value, limit=40) for value in values)[:limit]


def _located(location: Location, stack) -> Location:
    """The trip location, or — when the expansion happened inside
    template-made syntax with no source position — the innermost
    activation that still points into real source."""
    if getattr(location, "line", 0) > 0:
        return location
    for _, active_location in reversed(stack):
        if getattr(active_location, "line", 0) > 0:
            return active_location
    return location


def _chain_entries(stack, limit: int = 12) -> List[str]:
    """Render the active expansion chain innermost-first for a
    diagnostic backtrace, eliding the middle of huge chains."""
    entries = [f"{mayan} at {location}" for mayan, location in reversed(stack)]
    if len(entries) > limit:
        shown = limit // 2
        omitted = len(entries) - 2 * shown
        entries = entries[:shown] + [f"... ({omitted} more)"] + entries[-shown:]
    return entries


def _ambiguity_error(location, production, mayan_a, mayan_b):
    error = AmbiguousDispatchError(
        f"{location}: ambiguous Mayans on [{production}]: "
        f"{mayan_a} vs {mayan_b} are each more specific on "
        f"different arguments"
    )
    error.mayan_a = mayan_a
    error.mayan_b = mayan_b
    return error


def _order_chain(applicable, env, production, location) -> Tuple[int, ...]:
    """Sort applicable Mayans most-specific first.

    ``applicable`` holds (candidate position, mayan, bindings) triples
    in import order; the result is the tuple of positions to invoke.
    Selection repeatedly extracts the maximal element; within a maximal
    *equal* group the latest import wins; a *crossing* pair at the top
    is an ambiguity error.
    """
    remaining = list(applicable)
    ordered: List[int] = []
    while remaining:
        # Find maximal elements: no other strictly more specific.
        maximal = []
        for index, (position, mayan, _) in enumerate(remaining):
            dominated = False
            for other_index, (_, other, _) in enumerate(remaining):
                if other_index == index:
                    continue
                if _strictly_more_specific(other, mayan, env):
                    dominated = True
                    break
            if not dominated:
                maximal.append((position, mayan))
        # Crossing check within the maximal set: any two maximal Mayans
        # that are not equal-specificity are mutually more specific on
        # different arguments.
        for index, (_, mayan_a) in enumerate(maximal):
            for _, mayan_b in maximal[index + 1:]:
                if not _equally_specific(mayan_a, mayan_b, env):
                    raise _ambiguity_error(location, production,
                                           mayan_a, mayan_b)
        # Equal group: later import (higher position) first.
        maximal.sort(key=lambda entry: entry[0], reverse=True)
        ordered.extend(position for position, _ in maximal)
        kept = {position for position, _ in maximal}
        remaining = [entry for entry in remaining if entry[0] not in kept]
    return tuple(ordered)


def _strictly_more_specific(a, b, env) -> bool:
    saw_more = False
    for param_a, param_b in zip(a.params, b.params):
        outcome = compare_params(param_a, param_b, env)
        if outcome in (LESS, CROSS):
            return False
        if outcome == MORE:
            saw_more = True
    return saw_more


def _equally_specific(a, b, env) -> bool:
    return all(
        compare_params(param_a, param_b, env) == EQUAL
        for param_a, param_b in zip(a.params, b.params)
    )
