"""try/catch/finally in the Java subset."""

import pytest

from repro.interp import Interpreter, JavaThrow
from repro.lalr import ConflictError
from repro.typecheck import CheckError
from tests.conftest import compile_source, run_main


class TestGrammar:
    def test_grammar_still_conflict_free(self):
        from repro.javalang import base_grammar
        from repro.lalr import build_tables

        build_tables(base_grammar())  # raises on conflicts

    def test_try_requires_catch_or_finally(self):
        with pytest.raises(Exception):
            compile_source("""
                class A { void f() { try { g(); } } void g() { } }
            """)


class TestSemantics:
    def test_catch_matching_type(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        throw new RuntimeException("boom");
                    } catch (RuntimeException e) {
                        System.out.println("caught: " + e.getMessage());
                    }
                }
            }
        """) == ["caught: boom"]

    def test_catch_by_supertype(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        throw new IllegalArgumentException("specific");
                    } catch (Exception e) {
                        System.out.println("as exception");
                    }
                }
            }
        """) == ["as exception"]

    def test_first_matching_clause_wins(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        throw new NullPointerException();
                    } catch (NullPointerException e) {
                        System.out.println("npe");
                    } catch (Exception e) {
                        System.out.println("general");
                    }
                }
            }
        """) == ["npe"]

    def test_unmatched_exception_propagates(self):
        with pytest.raises(JavaThrow):
            run_main("""
                class Demo {
                    static void main() {
                        try {
                            throw new Error("not an Exception");
                        } catch (Exception e) {
                            System.out.println("nope");
                        }
                    }
                }
            """)

    def test_finally_runs_on_success(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        System.out.println("body");
                    } finally {
                        System.out.println("finally");
                    }
                }
            }
        """) == ["body", "finally"]

    def test_finally_runs_on_throw(self):
        from repro.interp import Interpreter

        program = compile_source("""
            class Demo {
                static void main() {
                    try {
                        throw new RuntimeException("x");
                    } finally {
                        System.out.println("cleanup");
                    }
                }
            }
        """)
        interp = Interpreter(program)
        with pytest.raises(JavaThrow):
            interp.run_static("Demo")
        assert interp.output == ["cleanup"]

    def test_finally_runs_after_catch(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        throw new RuntimeException("x");
                    } catch (RuntimeException e) {
                        System.out.println("handled");
                    } finally {
                        System.out.println("cleanup");
                    }
                }
            }
        """) == ["handled", "cleanup"]

    def test_builtin_exceptions_catchable(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        int x = 1 / 0;
                    } catch (ArithmeticException e) {
                        System.out.println("div: " + e.getMessage());
                    }
                    try {
                        int[] xs = new int[1];
                        int y = xs[9];
                    } catch (IndexOutOfBoundsException e) {
                        System.out.println("bounds");
                    }
                }
            }
        """) == ["div: / by zero", "bounds"]

    def test_nested_try(self):
        assert run_main("""
            class Demo {
                static void main() {
                    try {
                        try {
                            throw new Error("inner");
                        } catch (Exception e) {
                            System.out.println("wrong");
                        }
                    } catch (Error e) {
                        System.out.println("outer caught " + e.getMessage());
                    }
                }
            }
        """) == ["outer caught inner"]

    @pytest.mark.parametrize("backend", ["walk", "pycode"])
    def test_array_index_out_of_bounds(self, backend):
        """JLS 15.10.4: a bad array index throws
        ArrayIndexOutOfBoundsException, an IndexOutOfBoundsException,
        on reads and on writes; String and Vector keep the parent."""
        program = compile_source("""
            class Demo {
                static void main() {
                    int[] xs = new int[2];
                    try {
                        int y = xs[2];
                    } catch (ArrayIndexOutOfBoundsException e) {
                        System.out.println("read " + e.getMessage());
                    }
                    try {
                        xs[-1] = 4;
                    } catch (IndexOutOfBoundsException e) {
                        System.out.println("write " + e.getMessage());
                    }
                    try {
                        char c = "ab".charAt(3);
                    } catch (ArrayIndexOutOfBoundsException e) {
                        System.out.println("wrong");
                    } catch (IndexOutOfBoundsException e) {
                        System.out.println("string");
                    }
                }
            }
        """)
        interp = Interpreter(program, backend=backend)
        interp.run_static("Demo")
        assert interp.output == ["read 2", "write -1", "string"]


class TestStaticChecks:
    def test_cannot_catch_non_throwable(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Demo {
                    static void main() {
                        try { ; } catch (String s) { }
                    }
                }
            """)

    def test_cannot_throw_non_throwable(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Demo {
                    static void main() { throw new Object(); }
                }
            """)

    def test_catch_variable_typed_in_body(self):
        with pytest.raises(CheckError):
            compile_source("""
                class Demo {
                    static void main() {
                        try { ; } catch (Exception e) {
                            int x = e;
                        }
                    }
                }
            """)

    def test_unparse_roundtrip(self):
        program = compile_source("""
            class Demo {
                static void main() {
                    try { f(); } catch (Exception e) { ; } finally { ; }
                }
                static void f() { }
            }
        """)
        source = program.source()
        assert "try" in source and "catch (Exception e)" in source \
            and "finally" in source
        compile_source(source)  # recompiles
