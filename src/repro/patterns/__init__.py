"""Pattern parsing: Mayan parameter lists, templates, and syntax case.

The pattern parser (paper section 4.2) is the program parser's LALR(1)
driver fed input that may contain *nonterminal* symbols, with a
reduction sink of its own.  It produces partial parse trees,
used in two ways: to infer the structure of Mayan parameter lists
(binding formals to argument substructure), and to statically check and
compile quasiquote templates.
"""

from repro.patterns.items import (
    GroupItem,
    HoleItem,
    PatternError,
    TokItem,
    lex_pattern,
    lex_template,
)
from repro.patterns.pattern_parser import (
    PatternParseError,
    PatternParser,
    PTGroup,
    PTHole,
    PTLeaf,
    PTNode,
    PTStmts,
)
from repro.patterns.params import compile_parameter_list, production_from_pattern
from repro.patterns.templates import Template, TemplateError, syntax_case

__all__ = [
    "GroupItem",
    "HoleItem",
    "PTGroup",
    "PTHole",
    "PTLeaf",
    "PTNode",
    "PTStmts",
    "PatternError",
    "PatternParseError",
    "PatternParser",
    "Template",
    "TemplateError",
    "TokItem",
    "compile_parameter_list",
    "lex_pattern",
    "lex_template",
    "production_from_pattern",
    "syntax_case",
]
