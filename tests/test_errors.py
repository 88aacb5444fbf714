"""Error paths across the stack: diagnostics should be located,
specific, and raised at the right phase.

Every deliberate compile-time failure now carries a structured
Diagnostic; these tests assert on the *rendered* text — the
``file:line:col: [phase]`` head every consumer (mayac, embedders)
sees — rather than only on exception types.
"""

import pytest

from repro.interp import Interpreter, JavaThrow
from repro.lalr import ParseError
from repro.lexer import LexError
from repro.mayac import main as mayac_main
from repro.multijava import MultiJavaError
from repro.typecheck import CheckError
from tests.conftest import compile_source, run_main


def rendered(exc_info) -> str:
    """The diagnostic of a raised compiler error, rendered."""
    return exc_info.value.diagnostic.render()


class TestLexErrors:
    def test_location_in_message(self):
        with pytest.raises(LexError) as exc:
            compile_source("class A {\n  int x = `;\n}")
        assert ":2:" in str(exc.value)
        assert "<string>:2:" in rendered(exc)
        assert "[lex]" in rendered(exc)

    def test_unbalanced_braces_points_at_opener(self):
        with pytest.raises(LexError) as exc:
            compile_source("class A { void f() { }")
        text = rendered(exc)
        assert "unexpected end of file" in text
        # The lone '}' closes the method body; the *class* brace at
        # column 9 is the unclosed one, and the diagnostic points at
        # that opening brace, not at EOF.
        assert "unclosed '{' opened at 1:9" in text
        assert "<string>:1:9: [lex]" in text

    def test_malformed_number_in_mayac_is_located(self, tmp_path, capsys):
        # int("0x", 16) raises ValueError; mayac must print a located
        # diagnostic, not that exception's bare message.
        source = tmp_path / "hex.maya"
        source.write_text("class A {\n  int x = 0x;\n}\n")
        assert mayac_main([str(source)]) == 1
        err = capsys.readouterr().err
        assert f"{source}:2:11: [lex] error: malformed number '0x'" in err
        assert "ValueError" not in err


class TestParseErrors:
    def test_member_level_error(self):
        with pytest.raises(ParseError) as exc:
            compile_source("class A { int int; }")
        text = rendered(exc)
        assert "[parse]" in text
        assert "<string>:1:15" in text

    def test_statement_level_error(self):
        with pytest.raises(ParseError) as exc:
            compile_source("class A { void f() { if; } }")
        assert "[parse]" in rendered(exc)

    def test_expression_error_inside_condition(self):
        with pytest.raises(ParseError) as exc:
            compile_source("class A { void f() { while (1 +) f(); } }")
        text = rendered(exc)
        assert "[parse]" in text
        assert "expected one of" in text


class TestCheckErrors:
    def test_error_names_the_method(self):
        with pytest.raises(CheckError) as exc:
            compile_source("""
                class A { void f() { nosuch(); } }
            """)
        assert "nosuch" in str(exc.value)
        assert "[check]" in rendered(exc)

    def test_duplicate_flag_on_wrong_arity(self):
        with pytest.raises(CheckError) as exc:
            compile_source("""
                class A {
                    int f(int a) { return a; }
                    void g() { f(1, 2); }
                }
            """)
        assert "<string>:4: " not in rendered(exc)  # full line:col head
        assert "[check]" in rendered(exc)

    def test_void_in_expression_position(self):
        with pytest.raises(CheckError) as exc:
            compile_source("""
                class A {
                    void v() { }
                    void g() { int x = v(); }
                }
            """)
        assert "[check]" in rendered(exc)

    def test_unknown_field(self):
        with pytest.raises(CheckError) as exc:
            compile_source("""
                class A { int f() { return this.nothere; } }
            """)
        text = rendered(exc)
        assert "[check]" in text
        assert "<string>:2:" in text

    def test_rendered_diagnostic_shows_source_line(self):
        """Compiling through mayac registers the source, so the engine
        can render the offending line with a caret."""
        from repro.diag import CompileFailed
        from tests.conftest import make_compiler

        compiler = make_compiler()
        with pytest.raises(CheckError) as exc:
            compiler.compile("class A { void f() { nosuch(); } }",
                             "app.maya")
        text = compiler.env.diag.render(exc.value.diagnostic)
        assert "app.maya:1:22: [check]" in text
        assert "  | class A { void f() { nosuch(); } }" in text


class TestRuntimeErrors:
    def test_exception_class_preserved(self):
        with pytest.raises(JavaThrow) as exc:
            run_main("""
                class Demo {
                    static void main() {
                        Object o = "string";
                        Integer i = (Integer) o;
                    }
                }
            """)
        assert exc.value.value.class_type.name == \
            "java.lang.ClassCastException"

    def test_enumeration_exhaustion(self):
        with pytest.raises(JavaThrow) as exc:
            run_main("""
                import java.util.*;
                class Demo {
                    static void main() {
                        Vector v = new Vector();
                        Enumeration e = v.elements();
                        e.nextElement();
                    }
                }
            """)
        assert "NoSuchElement" in str(exc.value)

    def test_vector_bounds(self):
        with pytest.raises(JavaThrow):
            run_main("""
                import java.util.*;
                class Demo {
                    static void main() {
                        new Vector().elementAt(3);
                    }
                }
            """)

    def test_string_char_at_bounds(self):
        with pytest.raises(JavaThrow):
            run_main("""
                class Demo {
                    static void main() { "ab".charAt(9); }
                }
            """)


class TestMultiJavaErrors:
    def test_super_without_next_method(self):
        """A super send in the least-specific multimethod has no next
        applicable method."""
        with pytest.raises(MultiJavaError) as exc:
            compile_source("""
                use multijava.MultiJava;
                class C { }
                class D extends C { }
                class Host {
                    String m(C c) { return "x" + super.m(c); }
                    String m(C@D c) { return "y"; }
                }
                class Demo {
                    static void main() { new Host().m(new C()); }
                }
            """, multijava=True)
        assert "[check]" in rendered(exc)

    def test_unknown_receiver_class(self):
        with pytest.raises(MultiJavaError) as exc:
            compile_source("""
                use multijava.MultiJava;
                int NoSuch.m() { return 0; }
            """, multijava=True)
        assert "[check]" in rendered(exc)


class TestHygieneBreakIsDeliberate:
    def test_identifier_unquote_can_capture(self):
        """The explicit escape hatch: an unquoted Identifier refers to
        whatever is in scope at the expansion site."""
        from repro import Mayan, Template
        from repro.ast.nodes import Ident
        from tests.conftest import make_compiler

        class Capture(Mayan):
            result = "Statement"
            pattern = "grab ( ) \\;"
            TEMPLATE = Template("Statement",
                                "System.out.println($name);",
                                name="Identifier")

            def expand(self, ctx):
                return ctx.instantiate(self.TEMPLATE, name=Ident("secret"))

        compiler = make_compiler()
        compiler.provide("ext.Capture", Capture())
        program = compiler.compile("""
            class Demo {
                static void main() {
                    use ext.Capture;
                    String secret = "captured!";
                    grab();
                }
            }
        """)
        interp = Interpreter(program)
        interp.run_static("Demo")
        assert interp.output == ["captured!"]
