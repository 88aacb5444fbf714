"""Hygiene and referential transparency (paper 4.3, experiment E8)."""

import pytest

from repro.ast import nodes as n
from repro.core import CompileContext, CompileEnv
from repro.hygiene import Environment, HygieneError, make_id
from repro.patterns import Template
from tests.conftest import run_main


@pytest.fixture
def ctx():
    return CompileContext(CompileEnv())


class TestStaticFreeVariableDetection:
    def test_free_variable_rejected_at_compile_time(self, ctx):
        """Maya detects references to unbound variables when a template
        is compiled, not when it is executed."""
        template = Template("Statement", "f(undefined_var);")
        with pytest.raises(HygieneError) as exc:
            template.compiled(ctx.env)
        assert "undefined_var" in str(exc.value)

    def test_template_binders_are_not_free(self, ctx):
        template = Template("Statement", "{ int local = 1; f(local); }")
        template.compiled(ctx.env)  # no error

    def test_class_references_are_not_free(self, ctx):
        template = Template("Statement", "System.err.println($m);",
                            m="Expression")
        template.compiled(ctx.env)

    def test_unknown_type_name_rejected(self, ctx):
        template = Template("Statement", "NoSuchClass v = $x;",
                            x="Expression")
        with pytest.raises(HygieneError):
            template.compiled(ctx.env)

    def test_unqualified_method_calls_allowed(self, ctx):
        # A bare method name resolves against the expansion site's class.
        template = Template("Statement", "helper($x);", x="Expression")
        template.compiled(ctx.env)

    def test_unquoted_identifier_exempt(self, ctx):
        # Unquoting an Identifier is the explicit hygiene break.
        template = Template("Statement", "f($name);", name="Identifier")
        template.compiled(ctx.env)


class TestRenaming:
    def test_no_capture_of_user_variables(self):
        """The macro's temporary cannot capture the user's variable of
        the same name (the foreach enumVar guarantee)."""
        lines = run_main("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    String enumVar = "user value";
                    Vector v = new Vector();
                    v.addElement("element");
                    v.elements().foreach(String s) {
                        System.out.println(enumVar);
                        System.out.println(s);
                    }
                }
            }
        """, macros=True)
        assert lines == ["user value", "element"]

    def test_nested_expansions_do_not_collide(self):
        lines = run_main("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector outer = new Vector();
                    outer.addElement("a");
                    Vector inner = new Vector();
                    inner.addElement("x");
                    inner.addElement("y");
                    outer.elements().foreach(String o) {
                        inner.elements().foreach(String i) {
                            System.out.println(o + i);
                        }
                    }
                }
            }
        """, macros=True)
        assert lines == ["ax", "ay"]

    def test_identical_compiles_give_identical_bytes(self):
        """Fresh names restart at every compilation unit, so compiling
        the same source twice on one thread expands to the same text."""
        from repro import MayaCompiler

        source = """
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.elements().foreach(Object o) { }
                }
            }
        """

        def expand():
            compiler = MayaCompiler(CompileEnv.fresh_session())
            return compiler.configure({}).compile(source).source()

        first = expand()
        assert "enumVar$1" in first
        assert expand() == first

    def test_make_id_unique(self):
        names = {make_id("t").name for _ in range(100)}
        assert len(names) == 100

    def test_environment_facade(self):
        ident = Environment.make_id()
        assert "$" in ident.name


class TestReferentialTransparency:
    def test_template_types_resolve_at_definition(self, ctx):
        template = Template("Statement", "String s = $x;", x="Expression")
        compiled = template.compiled(ctx.env)
        # Find the strict-type mark: the TypeName was resolved to
        # java.lang.String at template compile time.
        stmt = template.instantiate(
            ctx, x=n.Literal("String", "v"))
        assert isinstance(stmt.type_name, n.StrictTypeName)
        assert stmt.type_name.type.name == "java.lang.String"

    def test_shadowing_package_cannot_subvert_template(self):
        """The paper's package-p example: a local class named java (or a
        field named System) cannot change what a template's
        java.util.Enumeration or System.err means."""
        lines = run_main("""
            import java.util.*;
            class System_ { }
            class Demo {
                static int java = 5;
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.addElement("ok");
                    v.elements().foreach(String s) {
                        System.out.println(s + java);
                    }
                }
            }
        """, macros=True)
        # The template's java.util.Enumeration resolved at definition
        # time even though 'java' names a static field here.
        assert lines == ["ok5"]

    def test_strict_type_in_expansion_output(self):
        from tests.conftest import compile_source

        program = compile_source("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.elements().foreach(Object o) { }
                }
            }
        """, macros=True)
        assert "java.util.Enumeration" in program.source()
