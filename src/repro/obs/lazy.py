"""The laziness profiler: measuring what lazy parsing never does.

The paper's central implementation technique is interleaved lazy
parsing and lazy type checking — Maya only parses and checks the trees
an expansion actually forces.  This module measures that directly:
every lazy thunk creation (``ctx.lazy_subtree``, template lazy groups,
``rescope_lazy`` copies) and every *first* force demanded by a
compiler driver (the class compiler forcing method bodies, the checker
forcing statement thunks, the interpreter, MultiJava's translator) is
counted per production symbol and per compiler phase, along with the
number of captured-but-unparsed tokens.  ``mayac --lazy-report``
renders the result; the same numbers land in the metrics registry
(``maya_lazy_*`` families) for ``--metrics-out``.

Forcing is counted **at the driver boundary** — the call sites that
*demand* a value — rather than inside ``LazyNode.force`` itself:
``force()`` is also reached from internal plumbing (unparse of
already-forced nodes, node equality, rescoping) where no new work
happens, and the boundary is where the phase attribution is meaningful
("the checker forced this body during bodies+check").  Thunks created
before the profiler was activated are never counted as forced either
(the ``_lazy_tracked`` mark), so ``forced <= created`` holds by
construction.

When no profiler is active every hook is one module-attribute read
plus a ``None`` check — the same discipline as :mod:`repro.trace`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as m

_CREATED = m.REGISTRY.counter(
    "maya_lazy_thunks_created_total",
    "Lazy parse thunks created, by creating phase and content symbol.",
    ("phase", "symbol"))
_FORCED = m.REGISTRY.counter(
    "maya_lazy_thunks_forced_total",
    "Lazy parse thunks forced, by forcing phase and content symbol.",
    ("phase", "symbol"))
_TOKENS_CREATED = m.REGISTRY.counter(
    "maya_lazy_tokens_created_total",
    "Tokens captured inside lazy thunks (deferred, possibly never parsed).",
    ("symbol",))
_TOKENS_FORCED = m.REGISTRY.counter(
    "maya_lazy_tokens_forced_total",
    "Captured tokens whose thunk was eventually forced (parsed).",
    ("symbol",))


def _symbol_name(symbol) -> str:
    return getattr(symbol, "name", None) or str(symbol)


def _token_weight(node) -> int:
    tree = getattr(node, "tree_token", None)
    children = getattr(tree, "children", None)
    return len(children) if children else 0


class LazinessProfiler:
    """Created/forced tallies for one profiling session."""

    def __init__(self):
        # (phase, symbol) -> thunk count
        self.created: Dict[Tuple[str, str], int] = {}
        self.forced: Dict[Tuple[str, str], int] = {}
        # symbol -> captured-token count
        self.tokens_created: Dict[str, int] = {}
        self.tokens_forced: Dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def record_created(self, symbol: str, tokens: int, phase: str) -> None:
        key = (phase, symbol)
        self.created[key] = self.created.get(key, 0) + 1
        self.tokens_created[symbol] = self.tokens_created.get(symbol, 0) + tokens
        _CREATED.labels(phase or "(none)", symbol).inc()
        if tokens:
            _TOKENS_CREATED.labels(symbol).inc(tokens)

    def record_forced(self, symbol: str, tokens: int, phase: str) -> None:
        key = (phase, symbol)
        self.forced[key] = self.forced.get(key, 0) + 1
        self.tokens_forced[symbol] = self.tokens_forced.get(symbol, 0) + tokens
        _FORCED.labels(phase or "(none)", symbol).inc()
        if tokens:
            _TOKENS_FORCED.labels(symbol).inc(tokens)

    # -- derived figures -------------------------------------------------

    @property
    def created_total(self) -> int:
        return sum(self.created.values())

    @property
    def forced_total(self) -> int:
        return sum(self.forced.values())

    @property
    def never_forced(self) -> int:
        return self.created_total - self.forced_total

    @property
    def never_forced_fraction(self) -> float:
        total = self.created_total
        return self.never_forced / total if total else 0.0

    @property
    def tokens_created_total(self) -> int:
        return sum(self.tokens_created.values())

    @property
    def tokens_forced_total(self) -> int:
        return sum(self.tokens_forced.values())

    @property
    def never_parsed_token_fraction(self) -> float:
        """The fraction of captured tokens that were never parsed —
        the closest direct measurement of "how much of the program the
        compiler never looked at"."""
        total = self.tokens_created_total
        return (total - self.tokens_forced_total) / total if total else 0.0

    def by_symbol(self) -> List[Tuple[str, int, int]]:
        """(symbol, created, forced) rows, most-created first."""
        created: Dict[str, int] = {}
        forced: Dict[str, int] = {}
        for (_, symbol), count in self.created.items():
            created[symbol] = created.get(symbol, 0) + count
        for (_, symbol), count in self.forced.items():
            forced[symbol] = forced.get(symbol, 0) + count
        return sorted(
            ((symbol, count, forced.get(symbol, 0))
             for symbol, count in created.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "thunks": {
                "created": self.created_total,
                "forced": self.forced_total,
                "never_forced": self.never_forced,
                "never_forced_fraction": round(self.never_forced_fraction, 4),
            },
            "tokens": {
                "captured": self.tokens_created_total,
                "parsed": self.tokens_forced_total,
                "never_parsed_fraction":
                    round(self.never_parsed_token_fraction, 4),
            },
            "created_by_phase_symbol": {
                f"{phase or '(none)'}/{symbol}": count
                for (phase, symbol), count in sorted(self.created.items())
            },
            "forced_by_phase_symbol": {
                f"{phase or '(none)'}/{symbol}": count
                for (phase, symbol), count in sorted(self.forced.items())
            },
        }

    def render(self) -> str:
        """The human ``mayac --lazy-report`` view."""
        lines = ["== mayac lazy report =="]
        lines.append(
            f"thunks: {self.created_total} created, "
            f"{self.forced_total} forced, "
            f"{self.never_forced} never forced "
            f"({self.never_forced_fraction:.1%} of the lazy program "
            f"never parsed/checked)"
        )
        if self.tokens_created_total:
            never = self.tokens_created_total - self.tokens_forced_total
            lines.append(
                f"tokens: {self.tokens_created_total} captured lazily, "
                f"{self.tokens_forced_total} eventually parsed, "
                f"{never} never parsed "
                f"({self.never_parsed_token_fraction:.1%})"
            )
        rows = self.by_symbol()
        if rows:
            lines.append("per production:")
            for symbol, created, forced in rows:
                never = created - forced
                fraction = never / created if created else 0.0
                lines.append(
                    f"  {symbol:<22} created {created:<5} forced {forced:<5}"
                    f" never {never:<4} ({fraction:.0%})"
                )
        phases: Dict[str, Tuple[int, int]] = {}
        for (phase, _), count in self.created.items():
            created, forced = phases.get(phase, (0, 0))
            phases[phase] = (created + count, forced)
        for (phase, _), count in self.forced.items():
            created, forced = phases.get(phase, (0, 0))
            phases[phase] = (created, forced + count)
        if phases:
            lines.append("per phase:")
            for phase in sorted(phases):
                created, forced = phases[phase]
                lines.append(
                    f"  {phase or '(outside phases)':<22} "
                    f"created {created:<5} forced {forced}"
                )
        return "\n".join(lines)


#: The currently active laziness profiler, or None (the common case).
active: Optional[LazinessProfiler] = None


def activate(profiler: Optional[LazinessProfiler] = None) -> LazinessProfiler:
    """Activate a laziness profiler.  A fresh profiler owns the
    ``maya_lazy_*`` registry families for its session, so they are
    zeroed here."""
    global active
    if profiler is None:
        profiler = LazinessProfiler()
        m.REGISTRY.reset("maya_lazy_")
    active = profiler
    return active


def deactivate() -> None:
    global active
    active = None


# -- hooks (no-ops when inactive) -------------------------------------------


def thunk_created(node):
    """Record a freshly created lazy thunk; returns the node so
    creation sites can wrap their return expression."""
    profiler = active
    if profiler is not None:
        node._lazy_tracked = True
        profiler.record_created(_symbol_name(node.symbol),
                                _token_weight(node), m.current_phase())
    return node


def thunk_forcing(node) -> None:
    """Record that a driver is about to force a thunk for the first
    time.  Call sites guard with ``isinstance(node, LazyNode)``; this
    hook handles the already-forced and untracked cases itself."""
    profiler = active
    if profiler is None:
        return
    if node.is_forced() or not getattr(node, "_lazy_tracked", False):
        return
    if getattr(node, "_lazy_force_counted", False):
        return
    node._lazy_force_counted = True
    profiler.record_forced(_symbol_name(node.symbol),
                           _token_weight(node), m.current_phase())
