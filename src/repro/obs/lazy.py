"""The laziness profiler: measuring what lazy parsing never does.

The paper's central implementation technique is interleaved lazy
parsing and lazy type checking — Maya only parses and checks the trees
an expansion actually forces.  This module measures that directly:
every lazy thunk creation (``ctx.lazy_subtree``, template lazy groups,
``rescope_lazy`` copies) and every *first* force demanded by a
compiler driver (the class compiler forcing method bodies, the checker
forcing statement thunks, the interpreter, MultiJava's translator) is
counted per production symbol and per compiler phase, along with the
number of captured-but-unparsed tokens, in the registry's
``maya_lazy_*`` families (exported by ``--metrics-out``); ``mayac
--lazy-report`` renders their growth over the run.

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


#: The phase label of thunks created or forced outside any phase.
_NO_PHASE = "(none)"


def _record(thunks, tokens, node) -> None:
    """Count one thunk event by phase and content symbol, and the
    tokens the thunk captured."""
    symbol = getattr(node.symbol, "name", None) or str(node.symbol)
    thunks.labels(m.current_phase() or _NO_PHASE, symbol).inc()
    tree = getattr(node, "tree_token", None)
    children = getattr(tree, "children", None)
    if children:
        tokens.labels(symbol).inc(len(children))


class LazinessProfiler:
    """One profiling session's figures: a view over the ``maya_lazy_*``
    families, counting what they gained between :func:`activate` and
    :func:`deactivate` (which freezes the view)."""

    def __init__(self):
        self._deltas = m.Deltas(_CREATED.name, _FORCED.name,
                                _TOKENS_CREATED.name, _TOKENS_FORCED.name)

    def freeze(self) -> None:
        self._deltas.freeze()

    # -- derived figures -------------------------------------------------

    @property
    def created_total(self) -> int:
        return self._deltas.total(_CREATED.name)

    @property
    def forced_total(self) -> int:
        return self._deltas.total(_FORCED.name)

    @property
    def never_forced(self) -> int:
        return self.created_total - self.forced_total

    @property
    def never_forced_fraction(self) -> float:
        total = self.created_total
        return self.never_forced / total if total else 0.0

    @property
    def tokens_created_total(self) -> int:
        return self._deltas.total(_TOKENS_CREATED.name)

    @property
    def tokens_forced_total(self) -> int:
        return self._deltas.total(_TOKENS_FORCED.name)

    @property
    def never_parsed_token_fraction(self) -> float:
        """The fraction of captured tokens that were never parsed —
        the closest direct measurement of "how much of the program the
        compiler never looked at"."""
        total = self.tokens_created_total
        return (total - self.tokens_forced_total) / total if total else 0.0

    def _pairs(self, index: int) -> Dict[str, List[int]]:
        """[created, forced] thunk counts per phase (``index`` 0) or
        per symbol (1)."""
        pairs: Dict[str, List[int]] = {}
        for column, family in enumerate((_CREATED, _FORCED)):
            for key, count in self._deltas.children(family.name).items():
                pairs.setdefault(key[index], [0, 0])[column] += count
        return pairs

    def by_symbol(self) -> List[Tuple[str, int, int]]:
        """(symbol, created, forced) rows, most-created first."""
        return sorted(
            ((symbol, created, forced)
             for symbol, (created, forced) in self._pairs(1).items()
             if created),
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
                f"{phase}/{symbol}": count
                for (phase, symbol), count
                in sorted(self._deltas.children(_CREATED.name).items())
            },
            "forced_by_phase_symbol": {
                f"{phase}/{symbol}": count
                for (phase, symbol), count
                in sorted(self._deltas.children(_FORCED.name).items())
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
        phases = self._pairs(0)
        if phases:
            lines.append("per phase:")
            for phase, (created, forced) in sorted(phases.items()):
                label = "(outside phases)" if phase == _NO_PHASE else phase
                lines.append(f"  {label:<22} created {created:<5} "
                             f"forced {forced}")
        return "\n".join(lines)


#: The currently active laziness profiler, or None (the common case).
active: Optional[LazinessProfiler] = None


def activate() -> LazinessProfiler:
    """Start a profiling session."""
    global active
    active = LazinessProfiler()
    return active


def deactivate() -> None:
    """End the session, freezing the active profiler's figures."""
    global active
    if active is not None:
        active.freeze()
    active = None


# -- hooks (no-ops when inactive) -------------------------------------------


def thunk_created(node):
    """Record a freshly created lazy thunk; returns the node so
    creation sites can wrap their return expression."""
    if active is not None:
        node._lazy_tracked = True
        _record(_CREATED, _TOKENS_CREATED, node)
    return node


def thunk_forcing(node) -> None:
    """Record that a driver is about to force a thunk for the first
    time.  Call sites guard with ``isinstance(node, LazyNode)``; this
    hook handles the already-forced and untracked cases itself."""
    if active is None:
        return
    if node.is_forced() or not getattr(node, "_lazy_tracked", False):
        return
    if getattr(node, "_lazy_force_counted", False):
        return
    node._lazy_force_counted = True
    _record(_FORCED, _TOKENS_FORCED, node)
