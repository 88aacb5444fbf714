"""Templates: static checking, substitution, laziness (paper 3.2/4.2)."""

import pytest

from repro.ast import nodes as n
from repro.ast import to_source
from repro.core import CompileContext, CompileEnv
from repro.dispatch import Mayan
from repro.hygiene import reset_fresh_names
from repro.lalr import Parser
from repro.lexer import stream_lex
from repro.patterns import (PatternError, PatternParseError, Template,
                            TemplateError)


@pytest.fixture
def ctx():
    return CompileContext(CompileEnv())


def parse_expr(ctx, source):
    parser = Parser(ctx.env.tables(), ctx)
    value, _ = parser.parse("Expression", stream_lex(source))
    return value


class TestCompilation:
    def test_valid_template_compiles(self, ctx):
        template = Template("Statement", "while ($cond) { $body }",
                            cond="Expression", body="BlockStmts")
        assert template.compiled(ctx.env) is not None

    def test_syntax_error_detected_at_compile_time(self, ctx):
        """Maya guarantees a template is syntactically correct by
        parsing its body when the template is compiled."""
        template = Template("Statement", "while while ($cond);",
                            cond="Expression")
        with pytest.raises(PatternParseError):
            template.compiled(ctx.env)

    def test_syntax_errors_are_located_diagnostics(self, ctx):
        """A pattern error's diagnostic spans the offending item, like a
        lexical error from the same template does; a pattern that ends
        too soon names its last item."""
        cases = [
            ("while while ($cond);", "<template>:1:7",
             "unexpected token 'while' while parsing Statement"),
            ("if ($cond) $body else", "<template>:1:18",
             "pattern ends before a complete Statement"),
            ("{ f($cond $cond); }", "<template>:1:11",
             "a Expression cannot appear here while parsing ArgList"),
        ]
        for source, where, message in cases:
            template = Template("Statement", source, cond="Expression",
                                body="Statement")
            with pytest.raises(PatternParseError) as caught:
                template.compiled(ctx.env)
            error = caught.value
            diagnostic = error.diagnostic
            assert str(error.location) == str(diagnostic.span) == where
            assert diagnostic.message.startswith(message), source
            assert str(error) == f"{where}: {diagnostic.message}"

    def test_empty_template_error_names_the_template(self, ctx):
        """An empty body has no item to point at, so the error names
        the template (result symbol and source preview), or the Mayan
        whose parameter list is empty, instead of reporting an unknown
        location."""
        for source in ("", "   "):
            with pytest.raises(PatternParseError) as caught:
                Template("Statement", source).compiled(ctx.env)
            error = caught.value
            assert str(error.diagnostic.span) == "<template>:1:1"
            assert error.diagnostic.message == (
                "pattern ends before a complete Statement in "
                "Template(Statement, '')")

        class Empty(Mayan):
            result = "Statement"
            pattern = ""

        with pytest.raises(PatternParseError) as caught:
            Empty().run(ctx.env.child())
        assert str(caught.value) == (
            "<pattern>:1:1: pattern ends before a complete Statement in "
            "Mayan Empty")

    def test_unquote_errors_are_located_diagnostics(self, ctx):
        template = Template("Statement", "f($ + 1);")
        with pytest.raises(PatternError) as caught:
            template.compiled(ctx.env)
        assert str(caught.value.diagnostic.span) == "<template>:1:3"

    def test_undeclared_hole_rejected(self, ctx):
        template = Template("Statement", "f($mystery);")
        with pytest.raises(Exception):
            template.compiled(ctx.env)

    def test_compiled_once_per_grammar(self, ctx):
        template = Template("Expression", "1 + $x", x="Expression")
        assert template.compiled(ctx.env) is template.compiled(ctx.env)

    def test_template_builds_concrete_tree(self, ctx):
        template = Template("Expression", "2 * 3")
        expr = template.instantiate(ctx)
        assert isinstance(expr, n.BinaryExpr) and expr.op == "*"


class TestSubstitution:
    def test_expression_hole(self, ctx):
        template = Template("Expression", "1 + $x", x="Expression")
        value = parse_expr(ctx, "2 * 3")
        expr = template.instantiate(ctx, x=value)
        assert to_source(expr) == "1 + 2 * 3"
        # The substituted node is spliced, not reparsed: precedence is
        # preserved structurally.
        assert isinstance(expr.right, n.BinaryExpr) and expr.right.op == "*"

    def test_precedence_immunity(self, ctx):
        """Unlike token-based macro systems, substituting a low-
        precedence expression under a high-precedence operator cannot
        reassociate it."""
        template = Template("Expression", "$a * $b",
                            a="Expression", b="Expression")
        value = parse_expr(ctx, "1 + 2")
        expr = template.instantiate(ctx, a=value, b=value)
        assert expr.op == "*"
        assert expr.left.op == "+" and expr.right.op == "+"

    def test_statement_hole(self, ctx):
        template = Template("Statement", "while (true) $body",
                            body="Statement")
        stmt = template.instantiate(
            ctx, body=n.ExprStmt(n.Literal("int", 1)))
        assert isinstance(stmt, n.WhileStmt)

    def test_type_hole(self, ctx):
        template = Template("Expression", "($t) $x", t="TypeName",
                            x="Expression")
        # Unused holes beyond declared are fine to pass explicitly.
        expr = template.instantiate(
            ctx,
            t=n.TypeName(("java", "lang", "String"), 0),
            x=parse_expr(ctx, "y"),
        )
        assert isinstance(expr, n.CastExpr)

    def test_identifier_hole_breaks_hygiene(self, ctx):
        template = Template("Statement", "int $name = 1;",
                            name="Identifier")
        stmt = template.instantiate(ctx, name=n.Ident("counter"))
        assert stmt.declarators[0].name.name == "counter"

    def test_missing_binding_rejected(self, ctx):
        template = Template("Expression", "1 + $x", x="Expression")
        with pytest.raises(TemplateError):
            template.instantiate(ctx)

    def test_wrong_value_type_rejected(self, ctx):
        template = Template("Statement", "while (true) $body",
                            body="Statement")
        with pytest.raises(TemplateError):
            template.instantiate(ctx, body=parse_expr(ctx, "1"))

    def test_block_splice(self, ctx):
        template = Template("Statement", "{ f(); $rest }",
                            rest="BlockStmts")
        rest = n.BlockStmts([n.ExprStmt(n.Literal("int", 1)),
                             n.ExprStmt(n.Literal("int", 2))])
        stmt = template.instantiate(ctx, rest=rest)
        assert len(stmt.body.stmts) == 3


class TestHygieneRenaming:
    def test_binders_renamed(self, ctx):
        reset_fresh_names()
        template = Template("Statement", "{ int tmp = $x; f(tmp); }",
                            x="Expression")
        stmt = template.instantiate(ctx, x=parse_expr(ctx, "1"))
        decl = stmt.body.stmts[0]
        name = decl.declarators[0].name.name
        assert name.startswith("tmp$")
        call = stmt.body.stmts[1]
        assert call.expr.args[0].parts == (name,)

    def test_each_instantiation_fresh(self, ctx):
        template = Template("Statement", "{ int tmp = 0; }")
        first = template.instantiate(ctx)
        second = template.instantiate(ctx)
        name1 = first.body.stmts[0].declarators[0].name.name
        name2 = second.body.stmts[0].declarators[0].name.name
        assert name1 != name2


class TestLazySubTemplates:
    def test_lazy_block_is_thunk(self, ctx):
        """Sub-templates in lazy positions become thunks expanded when
        the corresponding syntax would be parsed."""
        env = ctx.env
        from repro.macros.foreach import ForEach

        ForEach().run(env)
        template = Template("Statement",
                            "$e.foreach($v) { $inner }",
                            e="Expression", v="Formal",
                            inner="BlockStmts")
        assert template.compiled(env) is not None


class TestDispatchDuringReplay:
    def test_template_output_subject_to_mayans(self, ctx):
        """Templates perform the same reductions the parser would, so
        generated syntax is expanded by imported Mayans (the Collect
        macro relies on this)."""
        from repro.macros.foreach import ForEach

        child = ctx.env.child()
        ForEach().run(child)
        child_ctx = ctx.with_env(child)
        scope = child_ctx.scope
        enum_type = child.registry.resolve_type(
            ("java", "util", "Enumeration"))
        scope.define("src", enum_type)
        template = Template(
            "Statement",
            "$e.foreach(String s) { f(s); }",
            e="Expression",
        )
        stmt = template.instantiate(child_ctx, e=parse_expr(child_ctx, "src"))
        # The foreach Mayan ran during instantiation: we get a ForStmt.
        assert isinstance(stmt, n.ForStmt)
