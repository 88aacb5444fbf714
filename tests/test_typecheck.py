"""Type checking: expression types, name resolution, and static errors."""

import pytest

from repro.ast import nodes as n
from repro.core import CompileContext, CompileEnv
from repro.lalr import Parser
from repro.lexer import stream_lex
from repro.typecheck import CheckError, Scope, static_type_of
from repro.types import BOOLEAN, DOUBLE, INT, array_of
from tests.conftest import compile_source


def typed_expr(source: str, bindings=None):
    env = CompileEnv()
    scope = Scope(env=env)
    for name, type_spec in (bindings or {}).items():
        scope.define(name, env.registry.parse_type(type_spec))
    ctx = CompileContext(env, scope)
    parser = Parser(env.tables(), ctx)
    expr, _ = parser.parse("Expression", stream_lex(source))
    return expr, static_type_of(expr), env




def type_of(source: str, bindings=None):
    return typed_expr(source, bindings)[1]


class TestLiteralTypes:
    def test_int(self):
        assert type_of("42") is INT

    def test_double(self):
        assert type_of("1.5") is DOUBLE

    def test_boolean(self):
        assert type_of("true") is BOOLEAN

    def test_string(self):
        assert str(type_of('"hi"')) == "java.lang.String"

    def test_null(self):
        assert type_of("null").is_reference()


class TestOperators:
    def test_numeric_promotion(self):
        assert type_of("1 + 2") is INT
        assert type_of("1 + 2.0") is DOUBLE

    def test_string_concatenation(self):
        assert str(type_of('"a" + 1')) == "java.lang.String"
        assert str(type_of('1 + "a"')) == "java.lang.String"

    def test_comparison(self):
        assert type_of("1 < 2") is BOOLEAN

    def test_logical(self):
        assert type_of("true && false") is BOOLEAN

    def test_logical_needs_booleans(self):
        with pytest.raises(CheckError):
            type_of("1 && true")

    def test_arithmetic_needs_numbers(self):
        with pytest.raises(CheckError):
            type_of('"a" - 1')

    def test_conditional_unifies(self):
        assert type_of("true ? 1 : 2") is INT
        assert type_of("true ? 1 : 2.0") is DOUBLE

    def test_unary(self):
        assert type_of("-1") is INT
        assert type_of("!true") is BOOLEAN

    def test_not_needs_boolean(self):
        with pytest.raises(CheckError):
            type_of("!1")


class TestNames:
    def test_local_variable(self):
        assert type_of("x", {"x": "int"}) is INT

    def test_unknown_name(self):
        with pytest.raises(CheckError):
            type_of("nosuch")

    def test_field_chain(self):
        # System.out is a static field of type PrintStream.
        assert str(type_of("System.out")) == "java.io.PrintStream"

    def test_array_length(self):
        assert type_of("xs.length", {"xs": "int[]"}) is INT

    def test_static_method_call(self):
        assert type_of('Integer.parseInt("3")') is INT

    def test_instance_method_on_local(self):
        assert type_of("v.size()", {"v": "java.util.Vector"}) is INT

    def test_chained_calls(self):
        source = "v.elements().hasMoreElements()"
        assert type_of(source, {"v": "java.util.Vector"}) is BOOLEAN

    def test_resolution_cached(self):
        expr, _, _ = typed_expr("x", {"x": "int"})
        assert expr.resolution[0] == "local"


class TestCallsAndNews:
    def test_new_object(self):
        assert str(type_of("new java.util.Vector()")) == "java.util.Vector"

    def test_new_with_args(self):
        assert str(type_of("new java.lang.Integer(3)")) == "java.lang.Integer"

    def test_no_matching_constructor(self):
        with pytest.raises(CheckError):
            type_of('new java.lang.Integer("x", "y")')

    def test_cannot_instantiate_interface(self):
        with pytest.raises(CheckError):
            type_of("new java.util.Enumeration()")

    def test_new_array(self):
        assert type_of("new int[3]") is array_of(INT)

    def test_wrong_argument_type(self):
        with pytest.raises(CheckError):
            type_of("v.elementAt(true)", {"v": "java.util.Vector"})

    def test_overload_selection(self):
        # println(int) vs println(String): exact match picks int.
        expr, _, _ = typed_expr("System.out.println(3)")
        assert expr.target[2].param_types == (INT,)


class TestCastsAndInstanceof:
    def test_valid_downcast(self):
        source = "(String) o"
        assert str(type_of(source, {"o": "java.lang.Object"})) == \
            "java.lang.String"

    def test_invalid_cast(self):
        with pytest.raises(CheckError):
            type_of("(java.util.Vector) s", {"s": "java.lang.String"})

    def test_primitive_cast(self):
        assert type_of("(int) 2.5") is INT

    def test_instanceof(self):
        assert type_of("o instanceof String", {"o": "java.lang.Object"}) \
            is BOOLEAN


class TestAssignment:
    def test_assign_type(self):
        assert type_of("x = 1", {"x": "int"}) is INT

    def test_widening_assign(self):
        assert type_of("d = 1", {"d": "double"}) is DOUBLE

    def test_narrowing_rejected(self):
        with pytest.raises(CheckError):
            type_of("x = 1.5", {"x": "int"})

    def test_reference_assign_subtype(self):
        assert type_of("o = s", {"o": "java.lang.Object",
                                 "s": "java.lang.String"}) is not None

    def test_reference_assign_unrelated_rejected(self):
        with pytest.raises(CheckError):
            type_of("s = v", {"s": "java.lang.String",
                              "v": "java.util.Vector"})


class TestConstantNarrowing:
    """JLS 5.2: an ``int`` constant that fits narrows to byte or short
    in an initializer or a simple assignment."""

    SOURCE = """
        class Demo {
            static byte top = 127;
            static void main() {
                byte b = 127;
                short s = -32768;
                byte c = (-(5));
                b = -128;
                s = 32767;
                System.out.println(top + " " + b + " " + s + " " + c);
            }
        }
    """

    def test_fitting_constants_accepted(self):
        compile_source(self.SOURCE)

    def test_assignment_to_byte_types_as_byte(self):
        assert str(type_of("b = -128", {"b": "byte"})) == "byte"

    @pytest.mark.parametrize("declaration", [
        "byte b = 128;", "byte b = -129;", "short s = 32768;",
        "short s = -32769;", "byte b = 1.5;", "byte b = 5L;",
    ])
    def test_out_of_range_or_non_int_rejected(self, declaration):
        with pytest.raises(CheckError, match="cannot initialize"):
            compile_source(f"class C {{ void f() {{ {declaration} }} }}")

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(CheckError, match="cannot assign int to short"):
            type_of("s = 40000", {"s": "short"})

    def test_non_constant_rejected(self):
        with pytest.raises(CheckError, match="cannot assign int to byte"):
            type_of("b = i", {"b": "byte", "i": "int"})

    @pytest.mark.parametrize("backend", ["walk", "pycode"])
    def test_runs_on_both_backends(self, backend, tmp_path, capsys):
        from repro.mayac import main

        source = tmp_path / "Demo.maya"
        source.write_text(self.SOURCE)
        assert main([str(source), "--run", "Demo",
                     "--backend", backend]) == 0
        assert capsys.readouterr().out == "127 -128 32767 -5\n"


class TestProgramLevelChecks:
    def test_return_type_mismatch(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Bad { int f() { return "no"; } }
            """)

    def test_condition_must_be_boolean(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Bad { void f() { if (1) return; } }
            """)

    def test_bad_initializer(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Bad { void f() { int x = "s"; } }
            """)

    def test_unknown_type_in_member(self):
        with pytest.raises(Exception):
            compile_source("class Bad { NoSuchType f; }")

    def test_forward_reference_between_classes(self):
        # B is declared after A but A uses it: the shaper's two passes
        # make this work.
        program = compile_source("""
            class A { B partner() { return new B(); } }
            class B { A partner() { return new A(); } }
        """)
        assert "A" in [c.type.simple_name for c in program.classes.values()]

    def test_field_visible_in_method(self):
        compile_source("""
            class C { int count; int get() { return count; } }
        """)

    def test_param_shadows_field(self):
        compile_source("""
            class C {
                int x;
                int f(int x) { return x; }
            }
        """)

    def test_imports_resolve_simple_names(self):
        compile_source("""
            import java.util.Vector;
            class C { Vector v; }
        """)

    def test_static_method_has_no_this(self):
        with pytest.raises(CheckError):
            compile_source("""
                class C { static int f() { return this.g(); } int g() { return 1; } }
            """)
