"""Pattern parsing: parameter lists, production declarations (E5)."""

import pytest

from repro.core import CompileEnv
from repro.dispatch.specializers import StructSpec, TokenSpec, TypeSpec
from repro.grammar import Symbol
from repro.lalr.tables import tables_for
from repro.patterns import (
    PatternError,
    compile_parameter_list,
    lex_pattern,
    production_from_pattern,
)
from repro.patterns.items import GroupItem, HoleItem, TokItem


@pytest.fixture
def env():
    environment = CompileEnv()
    # Declare the foreach production so patterns can be compiled on it.
    production_from_pattern(
        environment.grammar, "Statement",
        "MethodName (Formal) lazy(BraceTree, BlockStmts)",
        tag="foreach_stmt",
    )
    return environment


class TestPatternLexer:
    def test_holes_and_names(self):
        items = lex_pattern("Expression:java.util.Enumeration enumExp")
        assert len(items) == 1
        hole = items[0]
        assert isinstance(hole, HoleItem)
        assert hole.name == "enumExp"
        assert isinstance(hole.spec, TypeSpec)
        assert hole.spec.type_parts == ("java", "util", "Enumeration")

    def test_expression_holes_lower_to_primary(self):
        hole = lex_pattern("Expression e")[0]
        assert hole.declared.name == "Expression"
        assert hole.symbol.name == "Primary"

    def test_escaped_token(self):
        items = lex_pattern("\\.")
        assert isinstance(items[0], TokItem) and items[0].token.kind == "."

    def test_unknown_identifier_is_token_literal(self):
        items = lex_pattern("foreach")
        assert isinstance(items[0], TokItem)
        assert items[0].token.text == "foreach"

    def test_groups(self):
        items = lex_pattern("(Formal var)")
        group = items[0]
        assert isinstance(group, GroupItem) and group.kind == "ParenTree"
        assert isinstance(group.items[0], HoleItem)

    def test_lazy_hole(self):
        items = lex_pattern("lazy(BraceTree, BlockStmts) body")
        hole = items[0]
        assert hole.name == "body"
        assert "lazy" in hole.symbol.name

    def test_array_type_spec(self):
        hole = lex_pattern("Expression:java.lang.Object[] arr")[0]
        assert hole.spec.dims == 1

    def test_dangling_escape(self):
        with pytest.raises(PatternError):
            lex_pattern("a \\")


class TestProductionDeclaration:
    def test_declares_production(self, env):
        production = env.add_production(
            "Statement", "unless (Expression) lazy(BraceTree, BlockStmts)"
        )
        assert production.lhs.name == "Statement"
        assert production.rhs[0].name == "unless"

    def test_redeclaration_is_noop(self, env):
        first = env.add_production("Statement",
                                   "MethodName (Formal) lazy(BraceTree, BlockStmts)")
        second = env.add_production("Statement",
                                    "MethodName (Formal) lazy(BraceTree, BlockStmts)")
        assert first is second

    def test_extended_grammar_still_lalr(self, env):
        tables_for(env.grammar)  # raises ConflictError on failure

    def test_multi_symbol_group(self, env):
        production = env.add_production(
            "Statement", "swap (Expression , Expression) \\;"
        )
        helper = production.rhs[1]
        assert helper.name.startswith("tree(")


class TestParameterCompilation:
    def test_foreach_parameter_structure(self, env):
        """Figure 5: the pattern parser infers EForEach's structure."""
        production, params, names = compile_parameter_list(
            tables_for(env.grammar), "Statement",
            "Expression:java.util.Enumeration enumExp \\. foreach "
            "(Formal var) lazy(BraceTree, BlockStmts) body",
        )
        assert production.tag == "foreach_stmt"
        assert len(params) == 3
        # First param: MethodName with substructure Expression . foreach
        method_name = params[0]
        assert method_name.symbol.name == "MethodName"
        assert isinstance(method_name.spec, StructSpec)
        receiver, dot, ident = method_name.spec.subparams
        assert receiver.name == "enumExp"
        assert isinstance(receiver.spec, TypeSpec)
        assert isinstance(ident.spec, TokenSpec)
        assert ident.spec.value == "foreach"
        # Second param: the parenthesized Formal
        assert params[1].symbol.name == "Formal"
        assert params[1].name == "var"
        # Third: the lazy block
        assert params[2].name == "body"
        assert names == ["enumExp", "var", "body"]

    def test_vforeach_nested_structure(self, env):
        """Figure 7: VForEach's receiver is itself structured."""
        production, params, _ = compile_parameter_list(
            tables_for(env.grammar), "Statement",
            "Expression:maya.util.Vector v \\. elements ( ) \\. foreach "
            "(Formal var) lazy(BraceTree, BlockStmts) body",
        )
        # EForEach and VForEach implement the one foreach production.
        assert production.tag == "foreach_stmt"
        method_name = params[0]
        receiver = method_name.spec.subparams[0]
        # The receiver is a MethodInvocation structure (CallExpr in the
        # paper's AST vocabulary).
        assert isinstance(receiver.spec, StructSpec)
        assert receiver.spec.production.lhs.name == "MethodInvocation"

    def test_base_production_pattern(self, env):
        """Patterns can select built-in productions (no extension)."""
        production, params, _ = compile_parameter_list(
            tables_for(env.grammar), "Expression",
            "Expression left + Expression right",
        )
        assert production.tag == "add_+"
        assert params[0].name == "left" and params[2].name == "right"

    def test_invalid_pattern_rejected(self, env):
        with pytest.raises(PatternError):
            compile_parameter_list(
                tables_for(env.grammar), "Statement",
                "if if if",
            )

    def test_statement_hole_pattern(self, env):
        production, params, _ = compile_parameter_list(
            tables_for(env.grammar), "Statement",
            "while (Expression cond) Statement body",
        )
        assert production.tag == "while"
        assert params[2].name == "body"
