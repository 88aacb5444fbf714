"""The LALR(1) parse driver: the one shift/reduce loop, for programs
and for patterns.

The driver reads input symbols: anything with a ``kind`` (a grammar
symbol's name), a ``text`` and a ``location``.  A program's input is
token-tree tokens (tree tokens are single terminals).  On every
reduction the driver hands the production and its semantic values to
a reduction sink, the ParserContext, which also builds the error for
input that no action takes.  There are two sinks:

* the program sink, ``repro.core.CompileContext``, runs internal
  actions and, for node-type productions, the Mayan dispatcher -- "on
  each reduction, the dispatcher executes the appropriate Mayan to
  build an AST node" (paper figure 4);
* the pattern sink (``repro.patterns.pattern_parser``) builds partial
  parse trees for Mayan parameter lists and templates.

A pattern's input may carry *nonterminal* symbols, its holes: the
paper's pattern parser is "a standard LALR(1) driver extended to
accept nonterminal input symbols" (section 4.2).  A nonterminal id is
never an ACTION key, so such an input misses the action lookup that
every token takes, and only then does the driver apply section 4.2's
two rules for a nonterminal X: follow the goto on X if there is one;
else, when every action on FIRST(X) is the same reduction, take it and
look again.  If neither applies, X cannot appear there.

Most reductions of an expression are unit reductions: the identity
``passthrough`` rules that climb one operand from ``PostfixExpr`` up to
``Expression``.  After a reduction, the driver looks up the chain of
unit reductions the automaton would take next on the same lookahead
(``ParseTables.unit_chain``, memoized) and asks the sink whether
any of them is observable.  When no Mayan is visible on any production
of the chain and the value needs no stamping, it jumps straight to the
chain's final state (unit-production elimination, Anderson, Eve and
Horning 1973); otherwise it reduces step by step.  A mid-method ``use``
can import a Mayan onto a unit production at any time, so the answer
is asked on every chain, not baked into the tables.  The pattern sink
never skips: its trees keep every unit reduction.

``allow_prefix`` parsing accepts the longest valid prefix and reports
how many tokens were consumed.  The block/member drivers use it to
parse one statement or declaration at a time, which is what lets a
``use`` directive extend the grammar for the *following* syntax.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.diag import Diagnostic, DiagnosticError, SourceSpan
from repro.grammar import Production
from repro.lexer import Location, Token
from repro.lalr.tables import ACCEPT, REDUCE, SHIFT, ParseTables


class ParseError(DiagnosticError):
    """A syntax error with location and expectation info."""

    phase = "parse"

    def __init__(self, message: str, location: Location, expected: Sequence[str] = ()):
        self.location = location
        self.expected = list(expected)
        detail = f"{location}: {message}"
        if expected:
            shown = ", ".join(self.expected[:10])
            detail += f" (expected one of: {shown})"
        super().__init__(detail)
        diagnostic = Diagnostic(
            message, phase="parse",
            span=SourceSpan.from_location(location), cause=self,
        )
        if self.expected:
            diagnostic.with_note(
                "expected one of: " + ", ".join(self.expected[:10])
            )
        self.diagnostic = diagnostic


class ParserContext:
    """A reduction sink: what the driver makes of each reduction and of
    input no action takes, plus the host services programs need on
    subtrees."""

    #: Where a reduction is located.  False (programs): at the first
    #: symbol of its handle, or at the lookahead when the handle is
    #: empty.  True (patterns): at the lookahead, and at
    #: ``Location.UNKNOWN`` when it reduces at end of input.
    at_lookahead = False

    def reduce(self, production: Production, values: List[object], location: Location):
        """The semantic value of reducing ``values`` by ``production``.
        The base runs internal actions; other productions need a host."""
        if production.internal:
            return production.action(self, values)
        raise NotImplementedError

    def skips_units(self, productions: Tuple[Production, ...], value) -> bool:
        """Whether reducing ``value`` through the unit ``productions``
        would return it unchanged with nothing else to observe, so the
        driver may skip those reductions.  The default never skips."""
        return False

    def syntax_error(self, token, start: str, location: Location,
                     expected: Sequence[str] = (),
                     complete: bool = False) -> Exception:
        """The error for ``token`` (None: end of input), which no action
        takes while parsing ``start``; ``complete`` when a whole
        ``start`` ends just before it."""
        where = "after complete" if complete else "while parsing"
        return ParseError(f"unexpected {describe_token(token)} {where} {start}",
                          location, expected)

    def parse_subtree(self, tree: Token, content_symbol) -> object:
        raise NotImplementedError

    def lazy_subtree(self, tree: Token, content_symbol) -> object:
        raise NotImplementedError


class Parser:
    """A single-use LALR(1) parse driver."""

    def __init__(self, tables: ParseTables, context: ParserContext):
        self.tables = tables
        self.context = context
        self.at_lookahead = context.at_lookahead

    def parse(
        self,
        start: str,
        tokens: Sequence[Token],
        allow_prefix: bool = False,
        offset: int = 0,
    ) -> Tuple[object, int]:
        """Parse ``tokens[offset:]`` starting at nonterminal ``start``.

        Returns (semantic value, index one past the last consumed
        token).  Unless ``allow_prefix`` is set, all tokens must be
        consumed.
        """
        tables = self.tables
        action_table = tables.action
        symbol_ids = tables.encoded.symbol_ids
        is_terminal = tables.encoded.is_terminal
        reduce = self._reduce
        eof = self._eof = tables.eof_id(start)
        state_stack: List[int] = [tables.start_state(start)]
        value_stack: List[object] = []
        location_stack: List[Location] = []

        position = offset
        length = len(tokens)
        seen = -1
        entry = None

        while True:
            if position != seen:
                seen = position
                if position < length:
                    token = tokens[position]
                    terminal = symbol_ids.get(token.kind)
                    location = token.location
                    # Token-literal terminals (paper 4.1: production
                    # arguments may be token literals such as
                    # ``typedef``): prefer an action on the
                    # spelling-specific terminal when a state has one.
                    specific = symbol_ids.get(token.text) \
                        if token.kind == "Identifier" else None
                    if specific is not None and not is_terminal[specific]:
                        specific = None
                else:
                    token = None
                    terminal = eof
                    specific = None
                    location = tokens[-1].location if tokens else Location.UNKNOWN

            if entry is None:
                actions = action_table[state_stack[-1]]
                entry = actions.get(specific) or actions.get(terminal)
                if (entry is None and terminal is not None
                        and not is_terminal[terminal]):
                    # A nonterminal input X (paper 4.2): follow the
                    # goto on X ...
                    target = tables.goto[state_stack[-1]].get(terminal)
                    if target is not None:
                        state_stack.append(target)
                        value_stack.append(token)
                        location_stack.append(location)
                        position += 1
                        continue
                    # ... else take the reduction that every action on
                    # FIRST(X) agrees on, and look again.
                    agreed = {actions.get(first)
                              for first in tables.encoded.first[terminal]}
                    agreed.discard(None)
                    if len(agreed) == 1 and next(iter(agreed))[0] == REDUCE:
                        entry = agreed.pop()

            if entry is None and (allow_prefix or terminal is None):
                # Try to finish the parse as if at end of input.
                finished = self._try_finish(
                    eof, state_stack, value_stack, location_stack, location
                )
                if finished is not None:
                    if not allow_prefix and position < length:
                        raise self.context.syntax_error(
                            token, start, location, complete=True)
                    return finished, position

            if entry is None:
                raise self.context.syntax_error(
                    token, start, location,
                    tables.expected_terminals(state_stack[-1]))

            kind, value = entry
            if kind == SHIFT:
                state_stack.append(value)
                value_stack.append(token)
                location_stack.append(location)
                position += 1
                entry = None
            elif kind == REDUCE:
                entry = reduce(value, state_stack, value_stack, location_stack,
                               location, terminal, specific)
            else:  # ACCEPT — only reachable via EOF terminal
                return value_stack[-1], position

    # -- internals -----------------------------------------------------------

    def _reduce(
        self,
        prod_index: int,
        states: List[int],
        values: List[object],
        locations: List[Location],
        lookahead_location: Location,
        terminal: Optional[int],
        specific: Optional[int],
    ) -> Optional[Tuple[str, int]]:
        """Reduce by ``prod_index``, then skip the unit chain that follows
        when the sink says no one can observe it.

        Returns the next action when the chain was taken (the memo
        knows it), else None for the caller to look up.
        """
        tables = self.tables
        lhs_id, rhs = tables.encoded.productions[prod_index]
        production = tables.encoded.production_objects[prod_index]
        count = len(rhs)
        if count:
            handle = values[-count:]
            location = locations[-count]
            del states[-count:]
            del values[-count:]
            del locations[-count:]
        else:
            handle = []
            location = lookahead_location
        if self.at_lookahead:
            location = Location.UNKNOWN if terminal == self._eof \
                else lookahead_location
        result = self.context.reduce(production, handle, location)

        under = states[-1]
        target = tables.goto[under].get(lhs_id)
        if target is None:  # pragma: no cover - table construction guarantees this
            raise ParseError(
                f"internal error: no goto for {production.lhs.name}", location
            )
        entry = None
        if tables.chain_starts[prod_index]:
            final, following, passed = tables.unit_chain(
                under, prod_index, terminal, specific)
            if passed and self.context.skips_units(passed, result):
                target = final
                entry = following
        states.append(target)
        values.append(result)
        locations.append(location)
        return entry

    def _try_finish(
        self,
        eof: int,
        state_stack: List[int],
        value_stack: List[object],
        location_stack: List[Location],
        location: Location,
    ) -> Optional[object]:
        """Run EOF actions to completion; None when the parse can't end here.

        Works on copies (swapped back in on success) so a failed attempt
        leaves the caller able to raise a precise error.
        """
        action_table = self.tables.action
        states = list(state_stack)
        values = list(value_stack)
        locations = list(location_stack)
        entry = None
        while True:
            if entry is None:
                entry = action_table[states[-1]].get(eof)
                if entry is None:
                    return None
            kind, value = entry
            if kind == ACCEPT:
                state_stack[:] = states
                value_stack[:] = values
                location_stack[:] = locations
                return values[-1]
            if kind != REDUCE:
                return None
            entry = self._reduce(value, states, values, locations, location,
                                 eof, None)


def describe_token(token: Optional[Token]) -> str:
    if token is None:
        return "end of input"
    if token.is_tree:
        return f"{token.kind} {token.source_text()[:40]!r}"
    return f"{token.kind} {token.text!r}"
