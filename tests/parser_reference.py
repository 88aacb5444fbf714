"""The step-by-step LALR(1) parse driver: the differential oracle for
``repro.lalr.parser.Parser`` (tests only).

This is the driver the compiler used before it learned to take a chain
of unit reductions in one step, kept verbatim.  It hands every
reduction -- the identity ``passthrough`` rules included -- to the
ParserContext, so each one is dispatched and stamped on its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.lexer import Location, Token
from repro.lalr.parser import ParseError, ParserContext, describe_token
from repro.lalr.tables import ACCEPT, REDUCE, SHIFT, ParseTables


class Parser:
    """A single-use LALR(1) parse driver."""

    def __init__(self, tables: ParseTables, context: ParserContext):
        self.tables = tables
        self.context = context

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
        eof = tables.eof_id(start)
        state_stack: List[int] = [tables.start_state(start)]
        value_stack: List[object] = []
        location_stack: List[Location] = []

        position = offset
        length = len(tokens)

        while True:
            if position < length:
                token = tokens[position]
                terminal = tables.symbol_id(token.kind)
                location = token.location
            else:
                token = None
                terminal = eof
                location = tokens[-1].location if tokens else Location.UNKNOWN

            state = state_stack[-1]
            entry = None
            if token is not None and token.kind == "Identifier":
                # Token-literal terminals (paper 4.1: production arguments
                # may be token literals such as ``typedef``): prefer an
                # action on the spelling-specific terminal when this
                # state has one.
                specific = tables.symbol_id(token.text)
                if specific is not None and tables.encoded.is_terminal[specific]:
                    entry = action_table[state].get(specific)
            if entry is None and terminal is not None:
                entry = action_table[state].get(terminal)

            if entry is None and (allow_prefix or terminal is None):
                # Try to finish the parse as if at end of input.
                finished = self._try_finish(
                    eof, state_stack, value_stack, location_stack, location
                )
                if finished is not None:
                    if not allow_prefix and position < length:
                        raise ParseError(
                            f"unexpected {describe_token(token)} after "
                            f"complete {start}",
                            location,
                        )
                    return finished, position
                entry = None  # fall through to error

            if entry is None:
                raise ParseError(
                    f"unexpected {describe_token(token)} while parsing {start}",
                    location,
                    tables.expected_terminals(state),
                )

            kind, value = entry
            if kind == SHIFT:
                state_stack.append(value)
                value_stack.append(token)
                location_stack.append(location)
                position += 1
            elif kind == REDUCE:
                self._apply_reduce(
                    value, state_stack, value_stack, location_stack, location
                )
            else:  # ACCEPT — only reachable via EOF terminal
                return value_stack[-1], position

    # -- internals -----------------------------------------------------------

    def _apply_reduce(
        self,
        prod_index: int,
        state_stack: List[int],
        value_stack: List[object],
        location_stack: List[Location],
        lookahead_location: Location,
    ) -> None:
        tables = self.tables
        lhs_id, rhs = tables.encoded.productions[prod_index]
        production = tables.encoded.production_objects[prod_index]
        count = len(rhs)
        if count:
            values = value_stack[-count:]
            location = location_stack[-count]
            del state_stack[-count:]
            del value_stack[-count:]
            del location_stack[-count:]
        else:
            values = []
            location = lookahead_location

        if production.internal:
            result = production.action(self.context, values)
        else:
            result = self.context.reduce(production, values, location)

        state = state_stack[-1]
        target = tables.goto[state].get(lhs_id)
        if target is None:  # pragma: no cover - table construction guarantees this
            raise ParseError(
                f"internal error: no goto for {production.lhs.name}", location
            )
        state_stack.append(target)
        value_stack.append(result)
        location_stack.append(location)

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
        tables = self.tables
        states = list(state_stack)
        values = list(value_stack)
        locations = list(location_stack)
        while True:
            entry = tables.action[states[-1]].get(eof)
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
            self._reduce_on(value, states, values, locations, location)

    def _reduce_on(
        self,
        prod_index: int,
        states: List[int],
        values: List[object],
        locations: List[Location],
        lookahead_location: Location,
    ) -> None:
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
        if production.internal:
            result = production.action(self.context, handle)
        else:
            result = self.context.reduce(production, handle, location)
        states.append(tables.goto[states[-1]][lhs_id])
        values.append(result)
        locations.append(location)
