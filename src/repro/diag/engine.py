"""The DiagnosticEngine: per-compilation collector and guard-rail knobs.

One engine lives on the *root* CompileEnv; child environments share it,
so every phase (parser drivers, checker, dispatcher, class compiler)
reports into the same stream.  The engine also remembers source text by
filename so rendering can show the offending line with a caret.

Guard-rail configuration lives here too, because the engine is the one
object every layer can already reach through its environment:

* ``max_errors`` — recovery stops absorbing errors past this count
  (the mayac ``--max-errors`` flag);
* ``max_expansion_depth`` — the expansion fuel budget: how many Mayan
  activations may be nested before "expansion too deep" (``--fuel``);
* ``max_mayan_reentry`` — the re-entrant-Mayan cycle detector: how many
  times a single Mayan may appear in the active expansion chain.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.diag.diagnostic import Diagnostic
from repro.diag.errors import diagnostic_from

DEFAULT_MAX_ERRORS = 20
DEFAULT_EXPANSION_DEPTH = 64
DEFAULT_MAYAN_REENTRY = 16


class DiagnosticEngine:
    """Collects diagnostics and renders them against registered sources."""

    def __init__(
        self,
        max_errors: int = DEFAULT_MAX_ERRORS,
        max_expansion_depth: int = DEFAULT_EXPANSION_DEPTH,
        max_mayan_reentry: int = DEFAULT_MAYAN_REENTRY,
    ):
        self.diagnostics: List[Diagnostic] = []
        self.sources: Dict[str, str] = {}
        self.max_errors = max_errors
        self.max_expansion_depth = max_expansion_depth
        self.max_mayan_reentry = max_mayan_reentry
        #: Optional wall-clock budget (a ``time.monotonic()`` stamp).
        #: Set per-request by the compile service so a runaway compile
        #: trips cooperatively even before the fuel budget would.
        self.deadline: Optional[float] = None

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceededError` past the deadline.

        Called at cheap, frequent boundaries (each Mayan activation,
        each member body) so per-request deadlines compose with the
        fuel/step budgets instead of relying on an external kill."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            from repro.diag.errors import DeadlineExceededError

            raise DeadlineExceededError(self.deadline)

    # -- sources ---------------------------------------------------------

    def add_source(self, filename: str, text: str) -> None:
        self.sources[filename] = text

    def source_text(self, filename: str) -> Optional[str]:
        return self.sources.get(filename)

    # -- collection ------------------------------------------------------

    def mark(self) -> int:
        """A position in the stream; compile() scopes its verdict to
        diagnostics emitted after its mark (one compiler instance may
        run several compiles)."""
        return len(self.diagnostics)

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def report(self, message: str, *, severity: str = "error",
               phase: str = "general", span=None, **kw) -> Diagnostic:
        return self.emit(Diagnostic(message, severity=severity, phase=phase,
                                    span=span, **kw))

    def absorb(self, error: BaseException, phase: str = "general") -> Diagnostic:
        """Record an exception as a diagnostic (idempotent per exception
        object, so nested recovery sites never double-report)."""
        diag = diagnostic_from(error, phase)
        if not getattr(error, "_diag_absorbed", False):
            error._diag_absorbed = True
            self.emit(diag)
        return diag

    def try_absorb(self, error: BaseException, phase: str = "general") -> bool:
        """Absorb the error if the ``max_errors`` budget allows; False
        means the caller should let the exception propagate.

        The budget counts *total* errors: the one that would become
        number ``max_errors`` is refused here, propagates, and is
        recorded by the compile driver as the final error — so exactly
        ``max_errors`` diagnostics are ever reported."""
        if self.error_count + 1 >= self.max_errors:
            return False
        self.absorb(error, phase)
        return True

    # -- queries ---------------------------------------------------------

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    def errors_since(self, mark: int = 0) -> List[Diagnostic]:
        return [d for d in self.diagnostics[mark:] if d.severity == "error"]

    # -- rendering -------------------------------------------------------

    def render(self, diagnostic: Diagnostic) -> str:
        return diagnostic.render(self.source_text)

