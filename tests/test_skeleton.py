"""Class skeletons (repro.types.skeleton): one record format for the
builtin library and for cached module interfaces.

* **Round trip** — for every builtin class, and every class of the
  22-module layered project and of a small project with fields,
  arrays, interfaces and constructors, ``install(export(classes))``
  into a fresh registry (through JSON, for the modules) declares the
  same name, supertypes, modifiers and member signatures, resolved
  against the fresh registry's own classes.
* **Order** — installing a shuffled record list gives the same
  registry.
* **Gate** — a malformed record list raises ``ValueError``.
* **Type spellings** — ``TypeRegistry.parse_type``, and through it
  ``CompileContext.resolve_type``, reads what ``str`` of a type writes.
"""

import json
import random

import pytest

from repro.core import CompileContext, CompileEnv
from repro.modules import MemorySources, ModuleBuilder
from repro.typecheck import Scope
from repro.types import (ClassType, INT, TypeError_, TypeRegistry, VOID,
                         array_of, export, install, validate)
from repro.types.builtins import BUILTIN_SKELETONS, standard_registry
from tests.test_lazy_restore import layered_project

#: Fields, arrays, an interface, constructors and modifiers, across
#: three modules.
SHAPES = {
    "lib.Shape": """
        interface Shape { int area(); Shape[] parts(int depth); }
    """,
    "lib.Box": """
        import lib.Shape;
        class Box implements Shape {
            static final int SIDES = 4;
            int width;
            String[][] labels;
            Box() { }
            Box(int width, String[] names) { this.width = width; }
            public int area() { return width * width; }
            public Shape[] parts(int depth) { return new Shape[depth]; }
            static Box unit() { return new Box(); }
        }
    """,
    "app.Main": """
        import lib.Box;
        class Main extends Box {
            protected java.util.Vector seen;
            static void main() { System.out.println(Box.unit().area()); }
        }
    """,
}


def signature(klass: ClassType, registry: TypeRegistry):
    """Everything a skeleton carries, with each class type checked to
    be ``registry``'s own."""
    def spell(type_):
        if isinstance(type_, ClassType):
            assert registry.classes[type_.name] is type_
        return str(type_)

    return (
        klass.name,
        klass.superclass and spell(klass.superclass),
        [spell(i) for i in klass.interfaces],
        klass.is_interface,
        klass.modifiers,
        [(f.name, spell(f.type), f.modifiers)
         for f in klass.fields.values()],
        [(m.name, [spell(p) for p in m.param_types],
          spell(m.return_type), m.modifiers)
         for bucket in klass.methods.values() for m in bucket],
        [([spell(p) for p in c.param_types], c.modifiers)
         for c in klass.constructors],
    )


def signatures(registry: TypeRegistry, names=None):
    return {name: signature(registry.classes[name], registry)
            for name in (names if names is not None else registry.classes)}


def module_classes(sources):
    """The registry and the compiled classes of a clean build of
    ``sources``."""
    builder = ModuleBuilder(MemorySources(sources))
    result = builder.build(["app.Main"])
    classes = [compiled.type for name in result.order
               for compiled in result.builds[name].classes]
    return builder.env.registry, classes


class TestRoundTrip:
    def test_builtins(self):
        original = standard_registry()
        fresh = install(TypeRegistry(), export(original.classes.values()))
        assert list(fresh.classes) == list(original.classes)
        assert signatures(fresh) == signatures(original)

    @pytest.mark.parametrize("sources", [layered_project(), SHAPES],
                             ids=["layered22", "shapes"])
    def test_module_classes(self, sources):
        registry, classes = module_classes(sources)
        records = json.loads(json.dumps(export(classes)))
        validate(records)
        fresh = install(standard_registry(), records)
        names = [klass.name for klass in classes]
        assert len(names) == len(sources)
        assert signatures(fresh, names) == signatures(registry, names)

    def test_exported_classes_keep_their_superclass(self):
        # Nothing is defaulted: an interface stays without one, and
        # java.lang.Object's own record has none.
        records = {record[0]: record
                   for record in export(module_classes(SHAPES)[1])}
        assert records["lib.Shape"][1:4] == [None, [], True]
        assert records["lib.Box"][1:4] == \
            ["java.lang.Object", ["lib.Shape"], False]
        assert records["app.Main"][1] == "lib.Box"
        assert standard_registry().require("java.lang.Object") \
            .superclass is None


class TestOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_builtins(self, seed):
        shuffled = list(BUILTIN_SKELETONS)
        random.Random(seed).shuffle(shuffled)
        fresh = install(TypeRegistry(), shuffled)
        assert signatures(fresh) == signatures(standard_registry())

    def test_shuffled_modules(self):
        registry, classes = module_classes(SHAPES)
        records = export(classes)
        records.reverse()  # importers before the modules they import
        fresh = install(standard_registry(), records)
        names = [klass.name for klass in classes]
        assert signatures(fresh, names) == signatures(registry, names)


METHOD = ["method", "m", ["int"], "void", []]

MALFORMED = {
    "not a list": {"truncated": True},
    "injected fault": [{"truncated": True}],
    "record arity": [["A", None, [], False, []]],
    "member arity": [["A", None, [], False, [], [METHOD[:4]]]],
    "non-string type": [["A", None, [], False, [], [
        ["method", "m", ["int"], 3, []]]]],
    "non-string param": [["A", None, [], False, [], [
        ["method", "m", [["int"]], "void", []]]]],
    "unknown kind": [["A", None, [], False, [], [
        ["property", "m", [], "int", []]]]],
    "non-bool flag": [["A", None, [], "no", [], []]],
    "non-string superclass": [["A", 7, [], False, [], []]],
    "non-string name": [[None, None, [], False, [], []]],
    "tuple, not JSON": [("A", None, [], False, [], [])],
    "string as a list": [["A", None, "java.lang.Object", False, [], []]],
}


class TestValidate:
    @pytest.mark.parametrize("records", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_is_rejected(self, records):
        with pytest.raises(ValueError):
            validate(records)

    def test_well_formed_passes(self):
        validate(json.loads(json.dumps(BUILTIN_SKELETONS)))
        validate([["A", None, [], False, [], [METHOD]]])


class TestParseType:
    @pytest.mark.parametrize("spec", [
        "int", "void", "java.lang.Object", "java.lang.Object[]",
        "maya.util.Vector[][]", "double[]"])
    def test_reads_what_str_writes(self, spec):
        assert str(standard_registry().parse_type(spec)) == spec

    def test_arrays_are_the_shared_types(self):
        registry = standard_registry()
        assert registry.parse_type("int[][]") is array_of(INT, 2)
        assert registry.parse_type("void") is VOID

    def test_resolves_against_imports_and_package(self):
        registry = standard_registry()
        registry.declare("app.Local", "java.lang.Object")
        imports = [(("java", "util"), True)]
        assert str(registry.parse_type("Hashtable[]", imports)) == \
            "java.util.Hashtable[]"
        assert registry.parse_type("Local", (), "app") \
            is registry.require("app.Local")
        assert registry.parse_type("String") \
            is registry.require("java.lang.String")

    def test_unknown_type(self):
        with pytest.raises(TypeError_):
            standard_registry().parse_type("NoSuch[]")

    def test_compile_context_reads_the_same_spellings(self):
        # The Mayan API's string form goes through the same parser.
        env = CompileEnv()
        env.imports.append((("java", "util"), True))
        ctx = CompileContext(env, Scope(env=env))
        assert str(ctx.resolve_type("Vector[][]")) == "java.util.Vector[][]"
        assert ctx.resolve_type("int") is INT
