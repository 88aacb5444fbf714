"""Unit tests for the type system and registry."""

import gc

import pytest

from repro.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    INT,
    LONG,
    NULL,
    TypeError_,
    array_of,
    binary_numeric_promotion,
    can_assign,
    can_cast,
)
from repro.types.builtins import standard_registry


@pytest.fixture
def registry():
    return standard_registry()


class TestPrimitives:
    def test_widening(self):
        assert INT.widens_to(LONG)
        assert INT.widens_to(DOUBLE)
        assert CHAR.widens_to(INT)
        assert not LONG.widens_to(INT)
        assert not INT.widens_to(CHAR)
        assert not BOOLEAN.widens_to(INT)

    def test_assignability(self):
        assert can_assign(INT, DOUBLE)
        assert not can_assign(DOUBLE, INT)
        assert can_assign(INT, INT)

    def test_promotion(self):
        assert binary_numeric_promotion(INT, DOUBLE) is DOUBLE
        assert binary_numeric_promotion(INT, LONG) is LONG
        assert binary_numeric_promotion(CHAR, INT) is INT

    def test_numeric_casts(self):
        assert can_cast(DOUBLE, INT)
        assert can_cast(INT, CHAR)
        assert not can_cast(BOOLEAN, INT)


class TestClassTypes:
    def test_subtyping_chain(self, registry):
        string = registry.require("java.lang.String")
        obj = registry.require("java.lang.Object")
        assert string.is_subtype_of(obj)
        assert not obj.is_subtype_of(string)

    def test_interface_subtyping(self, registry):
        enum = registry.require("java.util.Enumeration")
        assert enum.is_interface

    def test_maya_vector_extends_java_vector(self, registry):
        maya_vec = registry.require("maya.util.Vector")
        java_vec = registry.require("java.util.Vector")
        assert maya_vec.is_subtype_of(java_vec)
        assert maya_vec.is_subtype_of(registry.require("java.lang.Object"))

    def test_null_assignable_to_references(self, registry):
        assert can_assign(NULL, registry.require("java.lang.String"))
        assert not can_assign(NULL, INT)

    def test_ancestors_order(self, registry):
        maya_vec = registry.require("maya.util.Vector")
        names = [k.name for k in maya_vec.ancestors()]
        assert names[0] == "maya.util.Vector"
        assert names[1] == "java.util.Vector"
        assert "java.lang.Object" in names

    def test_ancestors_of_an_interface_diamond(self):
        """The loop gives the recursive definition's order: each class
        before its superclass chain, that before its interfaces, each
        type once.  And it leaves nothing for the cyclic collector."""
        obj = ClassType("Object")
        top = ClassType("Top", is_interface=True)
        left = ClassType("Left", interfaces=[top], is_interface=True)
        right = ClassType("Right", interfaces=[top], is_interface=True)
        base = ClassType("Base", obj, [right])
        leaf = ClassType("Leaf", base, [left, right])

        def recursive(klass, out, seen):
            if klass is None or klass.name in seen:
                return out
            seen.add(klass.name)
            out.append(klass)
            recursive(klass.superclass, out, seen)
            for interface in klass.interfaces:
                recursive(interface, out, seen)
            return out

        expected = recursive(leaf, [], set())
        assert [k.name for k in expected] == \
            ["Leaf", "Base", "Object", "Right", "Top", "Left"]
        assert leaf.ancestors() == expected
        gc.collect()
        gc.disable()
        try:
            leaf.ancestors()
            gc.set_debug(gc.DEBUG_SAVEALL)
            found = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == 0

    def test_downcast_allowed_upcast_allowed(self, registry):
        obj = registry.require("java.lang.Object")
        string = registry.require("java.lang.String")
        assert can_cast(obj, string)
        assert can_cast(string, obj)

    def test_sibling_cast_rejected(self, registry):
        string = registry.require("java.lang.String")
        vector = registry.require("java.util.Vector")
        assert not can_cast(string, vector)


class TestArrays:
    def test_interning(self):
        assert array_of(INT) is array_of(INT)
        assert array_of(INT, 2) is array_of(array_of(INT))

    def test_array_subtype_of_object(self, registry):
        obj = registry.require("java.lang.Object")
        assert array_of(INT).is_subtype_of(obj)

    def test_covariance(self, registry):
        obj = registry.require("java.lang.Object")
        string = registry.require("java.lang.String")
        assert array_of(string).is_subtype_of(array_of(obj))
        assert not array_of(INT).is_subtype_of(array_of(obj))

    def test_str(self, registry):
        assert str(array_of(INT, 2)) == "int[][]"


class TestMemberLookup:
    def test_field_inheritance(self, registry):
        klass = registry.declare("test.Base")
        klass.declare_field("x", INT)
        sub = registry.declare("test.Sub", "test.Base")
        assert sub.find_field("x").type is INT

    def test_method_overload_resolution(self, registry):
        stream = registry.require("java.io.PrintStream")
        string = registry.require("java.lang.String")
        chosen = stream.find_method("println", [string])
        assert chosen.param_types == (string,)
        chosen_int = stream.find_method("println", [INT])
        assert chosen_int.param_types == (INT,)

    def test_no_such_method(self, registry):
        with pytest.raises(TypeError_):
            registry.require("java.lang.String").find_method("nope", [])

    def test_most_specific_overload(self, registry):
        obj = registry.require("java.lang.Object")
        string = registry.require("java.lang.String")
        klass = registry.declare("test.Over")
        klass.declare_method("f", [obj], INT)
        klass.declare_method("f", [string], INT)
        chosen = klass.find_method("f", [string])
        assert chosen.param_types == (string,)

    def test_override_shadows_super(self, registry):
        base = registry.declare("test.B2", "java.lang.Object")
        base.declare_method("m", [], INT)
        sub = registry.declare("test.S2", "test.B2")
        override = sub.declare_method("m", [], INT)
        assert sub.find_method("m", []) is override

    def test_implicit_default_constructor(self, registry):
        klass = registry.declare("test.NoCtor")
        ctor = klass.find_constructor([])
        assert ctor.param_types == ()

    def test_constructor_overloads(self, registry):
        vector = registry.require("java.util.Vector")
        assert vector.find_constructor([INT]).param_types == (INT,)
        assert vector.find_constructor([]).param_types == ()

    def test_intercession_adds_member(self, registry):
        # The paper's "limited form of intercession that allows member
        # declarations to be added to a class body".
        shape = registry.declare("test.Shape")
        shape.declare_method("area", [], INT)
        assert shape.find_method("area", []).return_type is INT


class TestRegistryResolution:
    def test_fully_qualified(self, registry):
        assert registry.resolve(("java", "util", "Vector")).name == \
            "java.util.Vector"

    def test_java_lang_implicit(self, registry):
        assert registry.resolve(("String",)).name == "java.lang.String"

    def test_single_import(self, registry):
        imports = [(("java", "util", "Vector"), False)]
        assert registry.resolve(("Vector",), imports).name == \
            "java.util.Vector"

    def test_on_demand_import(self, registry):
        imports = [(("java", "util"), True)]
        assert registry.resolve(("Hashtable",), imports).name == \
            "java.util.Hashtable"

    def test_ambiguous_on_demand(self, registry):
        registry.declare("other.Vector")
        imports = [(("java", "util"), True), (("other",), True)]
        with pytest.raises(TypeError_):
            registry.resolve(("Vector",), imports)

    def test_current_package_first(self, registry):
        registry.declare("mypack.String")
        found = registry.resolve(("String",), (), "mypack")
        assert found.name == "mypack.String"

    def test_resolve_type_with_dims(self, registry):
        resolved = registry.resolve_type(("int",), 2)
        assert isinstance(resolved, ArrayType)

    def test_unknown_type(self, registry):
        with pytest.raises(TypeError_):
            registry.resolve_type(("NoSuch",), 0)
