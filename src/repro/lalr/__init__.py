"""LALR(1) parser generation and the parse driver.

The generator builds the LR(0) automaton (Aho et al., which the paper
also cites for its pattern-parsing description), computes LALR(1)
lookaheads with DeRemer & Pennello's relational construction, and
fills a parse table that rejects unresolved conflicts rather than
resolving them YACC-style (paper section 4.1).
"""

from repro.lalr.tables import (
    ConflictError,
    ParseTables,
    build_tables,
    tables_for,
)
from repro.lalr.parser import ParseError, Parser, ParserContext

__all__ = [
    "ConflictError",
    "ParseError",
    "ParseTables",
    "Parser",
    "ParserContext",
    "build_tables",
    "tables_for",
]
