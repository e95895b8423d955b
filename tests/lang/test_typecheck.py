"""Conventional (Java-level) type checker tests."""

import pytest

from repro.lang import ast, parse_program, resolve_program, typecheck_program
from repro.lang.symtab import BuiltinCall, MethodCall, ResolveError
from repro.lang.typecheck import JavaTypeError


def analyze(source: str):
    program = parse_program(source)
    info = resolve_program(program)
    typecheck_program(info)
    return info


def analyze_body(body: str, extra_members: str = "", extra_classes: str = ""):
    return analyze(
        f"class T {{ {extra_members} void m() {{ {body} }} }} {extra_classes}"
    )


def expect_error(source: str, fragment: str):
    with pytest.raises(JavaTypeError) as exc:
        analyze(source)
    assert fragment in str(exc.value), str(exc.value)


class TestDeclarations:
    def test_simple_ok(self):
        analyze_body("int x = 1; float y = x; boolean b = x < y;")

    def test_int_to_float_widening(self):
        analyze_body("float f = 3;")

    def test_float_to_int_rejected(self):
        expect_error("class T { void m() { int x = 1.5; } }", "initialize")

    def test_boolean_mismatch(self):
        expect_error("class T { void m() { boolean b = 1; } }", "initialize")

    def test_unknown_class_in_decl(self):
        expect_error("class T { void m() { Foo f = null; } }", "unknown class")

    def test_null_to_reference_ok(self):
        analyze_body("T t = null;", extra_members="")

    def test_null_to_primitive_rejected(self):
        expect_error("class T { void m() { int x = null; } }", "initialize")

    def test_duplicate_variable_rejected(self):
        expect_error(
            "class T { void m() { int x = 1; int x = 2; } }",
            "more than once",
        )

    def test_shadowing_param_rejected(self):
        expect_error(
            "class T { void m(int x) { int x = 1; } }", "more than once"
        )

    def test_use_before_declaration_rejected(self):
        expect_error("class T { void m() { int y = x; int x = 1; } }",
                     "unknown identifier")

    @pytest.mark.parametrize("head", [
        "if (v > 3)", "if (v > 3) {} else", "while (v > 3)",
        "for (int i = 0; i < v; i++)",
    ])
    def test_declaration_as_whole_body_rejected(self, head):
        """Java's rule: the declaration would name a variable in the
        enclosing scope that a skipped body leaves unbound."""
        expect_error(
            f"class T {{ void m(int v) {{ {head} int x = v; v = 1; }} }}",
            "variable declaration not allowed here",
        )

    def test_declaration_in_a_braced_body_is_scoped(self):
        analyze("class T { void m(int v) { if (v > 3) { int x = v; } } }")
        expect_error(
            "class T { void m(int v) { if (v > 3) { int x = v; } v = x; } }",
            "unknown identifier",
        )


class TestJumps:
    @pytest.mark.parametrize("jump", ["break", "continue"])
    def test_jump_outside_a_loop_rejected(self, jump):
        """A helper may not end its caller's loop (Java's rule)."""
        expect_error(
            "class T { void m(int v) { if (v > 3) { %s; } } }" % jump,
            f"'{jump}' outside a loop",
        )

    @pytest.mark.parametrize("loop", [
        "while (v > 0)", "for (;;)", "SSJAVA: while (true)",
    ])
    def test_jump_inside_a_loop_accepted(self, loop):
        analyze(
            "class T { void m(int v) { %s { if (v > 3) { break; } "
            "if (v > 2) { continue; } v = v - 1; } } }" % loop
        )


class TestImplicitThis:
    def test_bare_field_name_resolves_to_this(self):
        info = analyze("class T { int f; void m() { f = 1; } }")
        cls = info.program.classes[0]
        assign = cls.methods[0].body.stmts[0]
        assert isinstance(assign.target, ast.FieldAccess)
        assert isinstance(assign.target.obj, ast.ThisRef)

    def test_local_shadows_nothing_but_wins_scope(self):
        info = analyze(
            "class T { int f; void m() { int g = f; } }"
        )
        assert info is not None

    def test_this_in_static_method_rejected(self):
        expect_error(
            "class T { int f; static void m() { int x = this.f; } }",
            "static",
        )

    def test_inherited_field_via_implicit_this(self):
        analyze(
            "class A { int f; } class B extends A { void m() { f = 1; } }"
        )


class TestExpressions:
    def test_arithmetic_result_types(self):
        analyze_body("int a = 1 + 2; float b = 1 + 2.0; float c = 2.0 * 3.0;")

    def test_arithmetic_on_boolean_rejected(self):
        expect_error("class T { void m() { int x = true + 1; } }", "numeric")

    def test_string_concat(self):
        analyze_body('String s = "a" + 1; String t = "x" + "y";')

    def test_comparison_yields_boolean(self):
        expect_error("class T { void m() { int x = 1 < 2; } }", "initialize")

    def test_logical_requires_boolean(self):
        expect_error("class T { void m() { boolean b = 1 && 2; } }", "boolean")

    def test_equality_on_references(self):
        analyze_body("T t = null; boolean b = t == null;")

    def test_incompatible_equality_rejected(self):
        expect_error(
            'class T { void m() { boolean b = 1 == "s"; } }', "compare"
        )

    def test_negate_numeric_only(self):
        expect_error("class T { void m() { int x = -true; } }", "negate")

    def test_not_boolean_only(self):
        expect_error("class T { void m() { boolean b = !1; } }", "boolean")

    def test_casts(self):
        analyze_body("float f = 1.9; int i = (int) f; float g = (float) i;")

    def test_array_indexing(self):
        analyze_body("float[] a = new float[3]; float x = a[0];")

    def test_index_must_be_int(self):
        expect_error(
            "class T { void m() { int[] a = new int[3]; int x = a[1.5]; } }",
            "index",
        )

    def test_indexing_non_array_rejected(self):
        expect_error("class T { void m() { int x = 1; int y = x[0]; } }",
                     "cannot index")

    def test_array_length(self):
        analyze_body("int[] a = new int[2]; int n = a.length;")

    def test_length_of_non_array_rejected(self):
        expect_error("class T { void m() { int x = 1; int n = x.length; } }",
                     "no length")

    def test_condition_must_be_boolean(self):
        expect_error("class T { void m() { if (1) { } } }", "boolean")


class TestFieldsAndMethods:
    def test_field_access_resolution(self):
        info = analyze(
            "class A { int f; } class T { A a; void m() { int x = a.f; } }"
        )
        accesses = [
            uid for uid in info.field_refs
        ]
        assert accesses  # at least a.f resolved

    def test_unknown_field_rejected(self):
        expect_error(
            "class A { } class T { A a; void m() { int x = a.g; } }",
            "no field",
        )

    def test_method_call_arg_checking(self):
        analyze(
            "class T { int add(int a, int b) { return a + b; } "
            "void m() { int x = add(1, 2); } }"
        )

    def test_wrong_arity_rejected(self):
        expect_error(
            "class T { int f(int a) { return a; } void m() { f(); } }",
            "expects 1",
        )

    def test_wrong_arg_type_rejected(self):
        expect_error(
            "class T { int f(int a) { return a; } void m() { f(true); } }",
            "parameter",
        )

    def test_return_type_checked(self):
        expect_error(
            "class T { int f() { return true; } }", "return"
        )

    def test_void_cannot_return_value(self):
        expect_error("class T { void m() { return 1; } }", "void")

    def test_nonvoid_cannot_return_nothing(self):
        expect_error("class T { int m() { return; } }", "must return")

    def test_dynamic_dispatch_type(self):
        info = analyze(
            "class A { int f() { return 1; } } "
            "class B extends A { int f() { return 2; } } "
            "class T { A a; void m() { int x = a.f(); } }"
        )
        targets = [
            t for t in info.call_targets.values() if isinstance(t, MethodCall)
        ]
        assert targets[0].receiver_class == "A"

    def test_static_call(self):
        analyze(
            "class H { static int two() { return 2; } } "
            "class T { void m() { int x = H.two(); } }"
        )

    def test_instance_method_as_static_rejected(self):
        expect_error(
            "class H { int two() { return 2; } } "
            "class T { void m() { int x = H.two(); } }",
            "static",
        )

    def test_constructorless_new_with_args_rejected(self):
        expect_error(
            "class A { } class T { void m() { A a = new A(1); } }",
            "constructors",
        )


class TestBuiltins:
    def test_device_read(self):
        info = analyze_body("int x = Device.readSensor(); float f = Device.readTemp();")
        builtins = [
            t for t in info.call_targets.values() if isinstance(t, BuiltinCall)
        ]
        assert len(builtins) == 2

    def test_unknown_device_function(self):
        expect_error(
            "class T { void m() { int x = Device.readMagic(); } }",
            "unknown builtin",
        )

    def test_broadcast_any(self):
        analyze_body('SJ.broadcast(1); SJ.broadcast("s"); SJ.broadcast(1.0);')

    def test_math_functions(self):
        analyze_body(
            "float a = Math.sqrt(2.0); float b = Math.abs(-1.0); "
            "int c = Math.floor(1.5); float d = Math.min(1.0, 2.0);"
        )

    def test_math_abs_preserves_int(self):
        analyze_body("int a = Math.abs(-3);")

    def test_fill_type_checked(self):
        analyze_body("float[] a = new float[2]; SJ.fill(a, 0.0);")
        expect_error(
            "class T { void m() { int[] a = new int[2]; SJ.fill(a, 1.5); } }",
            "bad arguments",
        )

    def test_ordered_buffer(self):
        analyze_body(
            "OrderedBuffer b = new OrderedBuffer(3); b.insert(1.0); "
            "float x = b.get(0); int n = b.size();"
        )

    def test_buffer_constructor_arity(self):
        expect_error(
            "class T { void m() { OrderedBuffer b = new OrderedBuffer(); } }",
            "capacity",
        )

    def test_buffer_insert_type(self):
        expect_error(
            "class T { void m() { OrderedIntBuffer b = new OrderedIntBuffer(2);"
            " b.insert(1.5); } }",
            "bad arguments",
        )


class TestResolveErrors:
    def test_duplicate_class(self):
        with pytest.raises(ResolveError):
            resolve_program(parse_program("class A {} class A {}"))

    def test_unknown_superclass(self):
        with pytest.raises(ResolveError):
            resolve_program(parse_program("class A extends Missing {}"))

    def test_inheritance_cycle(self):
        with pytest.raises(ResolveError):
            resolve_program(
                parse_program("class A extends B {} class B extends A {}")
            )

    def test_duplicate_field(self):
        with pytest.raises(ResolveError):
            resolve_program(parse_program("class A { int f; int f; }"))

    def test_duplicate_method(self):
        with pytest.raises(ResolveError):
            resolve_program(
                parse_program("class A { void m() {} void m() {} }")
            )

    def test_builtin_class_shadowing(self):
        with pytest.raises(ResolveError):
            resolve_program(parse_program("class OrderedBuffer {}"))

    def test_event_loop_discovery(self):
        info = resolve_program(
            parse_program(
                "class A { void run() { SSJAVA: while (true) { } } }"
            )
        )
        assert info.event_loop is not None
        assert info.event_loop.method.name == "run"

    def test_sjava_label_also_accepted(self):
        info = resolve_program(
            parse_program("class A { void run() { SJAVA: while (true) { } } }")
        )
        assert len(info.event_loops) == 1
