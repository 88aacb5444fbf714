"""The foreach macros: experiment E1 (the section-3 expansion) and the
dispatch behavior behind E2 (the optimized VForEach)."""

import pytest

from repro.ast import nodes as n
from repro.interp import Interpreter
from tests.conftest import compile_source, run_main


class TestEForEach:
    def test_paper_expansion_shape(self):
        """Section 3: h.keys().foreach(String st) { ... } becomes a for
        loop over an Enumeration with a fresh enumVar$ variable."""
        program = compile_source("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Hashtable h = new Hashtable();
                    h.put("one", "1");
                    h.keys().foreach(String st) {
                        System.err.println(st + " = " + h.get(st));
                    }
                }
            }
        """, macros=True)
        source = program.source()
        assert "for (java.util.Enumeration enumVar$" in source
        assert ".hasMoreElements()" in source
        assert "(java.lang.String)" in source
        assert ".nextElement()" in source
        # The fresh name does not appear in user source.
        assert "foreach" not in source

    def test_runs_correctly(self):
        lines = run_main("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.addElement("a");
                    v.addElement("b");
                    v.elements().foreach(String s) {
                        System.out.println(s.toUpperCase());
                    }
                }
            }
        """, macros=True)
        assert lines == ["A", "B"]

    def test_name_receiver(self):
        lines = run_main("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.addElement("x");
                    Enumeration e = v.elements();
                    e.foreach(String s) { System.out.println(s); }
                }
            }
        """, macros=True)
        assert lines == ["x"]

    def test_loop_variable_typed(self):
        """The loop variable has the declared type; using it at a wrong
        type is a static error in the body."""
        with pytest.raises(Exception):
            compile_source("""
                import java.util.*;
                class Demo {
                    static void main() {
                        use maya.util.ForEach;
                        Vector v = new Vector();
                        v.elements().foreach(String s) {
                            int bad = s;
                        }
                    }
                }
            """, macros=True)

    def test_requires_enumeration_type(self):
        """foreach on a non-collection receiver has no applicable Mayan."""
        with pytest.raises(Exception):
            compile_source("""
                class Demo {
                    static void main() {
                        use maya.util.ForEach;
                        String s = "x";
                        s.length().foreach(String c) { }
                    }
                }
            """, macros=True)

    def test_without_use_foreach_is_error(self):
        with pytest.raises(Exception):
            compile_source("""
                import java.util.*;
                class Demo {
                    static void main() {
                        Vector v = new Vector();
                        v.elements().foreach(String s) { }
                    }
                }
            """, macros=True)


class TestAForEach:
    def test_array_receiver(self):
        lines = run_main("""
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    String[] names = { "ann", "bob" };
                    (names).foreach(String s) { System.out.println(s); }
                }
            }
        """, macros=True)
        assert lines == ["ann", "bob"]

    def test_array_name_receiver(self):
        lines = run_main("""
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    String[] names = { "x" };
                    names.foreach(String s) { System.out.println(s); }
                }
            }
        """, macros=True)
        assert lines == ["x"]


class TestVForEach:
    SOURCE = """
        class Demo {
            static void main() {
                use maya.util.ForEach;
                maya.util.Vector v = new maya.util.Vector();
                v.addElement("a");
                v.addElement("b");
                v.elements().foreach(String s) {
                    System.out.println(s);
                }
            }
        }
    """

    def test_optimized_expansion_selected(self):
        """The v.elements() call with a maya.util.Vector receiver picks
        the specialized Mayan: no Enumeration in the output."""
        program = compile_source(self.SOURCE, macros=True)
        source = program.source()
        assert "getElementData" in source
        assert "hasMoreElements" not in source

    def test_same_semantics(self):
        assert run_main(self.SOURCE, macros=True) == ["a", "b"]

    def test_avoids_allocation_and_calls(self):
        """Section 3's claim: the optimized expansion avoids the
        Enumeration allocation and its method calls (measured with the
        interpreter's counters)."""

        def counters_for(vector_class):
            source = f"""
                import java.util.*;
                class Demo {{
                    static void main() {{
                        use maya.util.ForEach;
                        {vector_class} v = new {vector_class}();
                        for (int i = 0; i < 50; i++) v.addElement("x");
                        int n = 0;
                        v.elements().foreach(String s) {{ n++; }}
                    }}
                }}
            """
            program = compile_source(source, macros=True)
            interp = Interpreter(program)
            interp.run_static("Demo")
            return interp.counters

        generic = counters_for("java.util.Vector")
        optimized = counters_for("maya.util.Vector")
        assert optimized.allocations < generic.allocations
        # hasMoreElements and nextElement are gone for every element.
        assert generic.method_calls - optimized.method_calls >= 2 * 50

    def test_java_vector_still_generic(self):
        """A plain java.util.Vector receiver is NOT specialized."""
        program = compile_source(self.SOURCE.replace(
            "maya.util.Vector", "java.util.Vector"), macros=True)
        assert "hasMoreElements" in program.source()


class TestMultipleForeachInOneMethod:
    def test_fresh_names_per_expansion(self):
        program = compile_source("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.elements().foreach(String a) { }
                    v.elements().foreach(String b) { }
                }
            }
        """, macros=True)
        source = program.source()
        import re

        names = set(re.findall(r"enumVar\$\d+", source))
        assert len(names) == 2
