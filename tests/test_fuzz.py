"""Crash-freedom fuzzing.

Generates random well-formed sjava programs (valid syntax and
conventional types, arbitrary location annotations) and checks that:

* the printer round-trips them (parse → print → parse is a fixpoint);
* the full SJava checker always terminates with a report — accepting or
  rejecting, but never raising — whatever the annotations say;
* the inference engine always produces annotations that the checker
  accepts, on any *unannotated* generated program whose runtime shape is
  an event loop.

Besides plain assignments the generator emits array stores and reads at
arithmetic indices, compound assignments, and field stores through a
call.  Each store evaluates its value, and the target's index or
receiver, in an order the engines must agree on: the injectable sites
in those expressions are numbered in evaluation order.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.checker import check_program
from repro.infer import infer_annotations
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from tests.conftest import analyze

LOCATIONS = ["LA", "LB", "LC", "LD"]
FIELDS = ["f0", "f1", "f2"]
VARS = ["v0", "v1", "v2"]
ARRAY = "arr"
ARRAY_LENGTH = 4


@st.composite
def programs(draw, annotated: bool = True, call_stores: bool = True):
    """A random single-class event-loop program over int state.
    ``call_stores=False`` leaves out field stores through a call."""
    # --- lattice over locations: order by index (acyclic) ---
    entries = []
    for i, low in enumerate(LOCATIONS):
        for high in LOCATIONS[i + 1:]:
            if draw(st.booleans()):
                entries.append(f"{low}<{high}")
    shared = [f"{loc}*" for loc in LOCATIONS if draw(st.booleans())]
    lattice = ",".join(entries + shared) or "LA<LB"

    def ann(loc: str) -> str:
        return f'@LOC("{loc}") ' if annotated else ""

    field_locs = {f: draw(st.sampled_from(LOCATIONS)) for f in FIELDS}
    fields = "\n  ".join(
        f"{ann(field_locs[f])}int {f};" for f in FIELDS
    )
    array_loc = draw(st.sampled_from(LOCATIONS))
    fields += (
        f"\n  {ann(array_loc)}int[] {ARRAY} = new int[{ARRAY_LENGTH}];"
    )

    var_locs = {v: draw(st.sampled_from(LOCATIONS)) for v in VARS}

    # --- statements over {fields, vars, input} ---
    def operand() -> str:
        kind = draw(st.sampled_from(["field", "var", "input", "lit",
                                     "element"]))
        if kind == "field":
            return draw(st.sampled_from(FIELDS))
        if kind == "var":
            return draw(st.sampled_from(VARS))
        if kind == "lit":
            return str(draw(st.integers(0, 9)))
        if kind == "element":
            return element()
        return "inv"

    def arith() -> str:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"{operand()} {op} {operand()}"

    def element() -> str:
        # arithmetic, possibly out of bounds: crash avoidance skips it
        return f"{ARRAY}[({arith()}) % {ARRAY_LENGTH}]"

    def expr() -> str:
        if draw(st.booleans()):
            return operand()
        return arith()

    def target() -> str:
        kind = draw(st.sampled_from(
            ["field", "var", "element", "call"] if call_stores
            else ["field", "var", "element"]
        ))
        if kind == "field":
            return draw(st.sampled_from(FIELDS))
        if kind == "var":
            return draw(st.sampled_from(VARS))
        if kind == "element":
            return element()
        return f"self().{draw(st.sampled_from(FIELDS))}"

    statements = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["assign-field", "assign-var", "if",
                                     "emit", "store", "compound"]))
        if kind == "assign-field":
            statements.append(f"{draw(st.sampled_from(FIELDS))} = {expr()};")
        elif kind == "assign-var":
            statements.append(f"{draw(st.sampled_from(VARS))} = {expr()};")
        elif kind == "store":
            statements.append(f"{target()} = {expr()};")
        elif kind == "compound":
            op = draw(st.sampled_from(["+=", "-=", "*="]))
            statements.append(f"{target()} {op} {expr()};")
        elif kind == "if":
            cmp_op = draw(st.sampled_from(["<", ">", "=="]))
            body = f"{draw(st.sampled_from(VARS))} = {expr()};"
            statements.append(f"if ({operand()} {cmp_op} {operand()}) "
                              f"{{ {body} }}")
        else:
            statements.append(f"SJ.broadcast({operand()});")
    statements.append(f"SJ.broadcast({draw(st.sampled_from(FIELDS))});")

    this_loc = draw(st.sampled_from(LOCATIONS))
    method_anns = (
        f'@LATTICE("{lattice},MIN<{this_loc}") @THISLOC("MTHIS")'
        if annotated
        else ""
    )
    class_ann = f'@LATTICE("{lattice}")' if annotated else ""
    var_decls = "\n      ".join(
        (f'@LOC("{var_locs[v]}") ' if annotated else "") + f"int {v} = 0;"
        for v in VARS
    )
    method_lattice = (
        f'@LATTICE("{lattice},MTHIS<MIN") @THISLOC("MTHIS")'
        if annotated else ""
    )
    in_ann = '@LOC("MIN") ' if annotated else ""

    return f"""
    {class_ann}
    class Fuzzed {{
      {fields}
      {method_lattice}
      void run() {{
        SSJAVA:
        while (true) {{
          {in_ann}int inv = Device.readSensor();
          {var_decls}
          {' '.join(statements)}
        }}
      }}
      {method_lattice}
      Fuzzed self() {{
        {in_ann}int t = 1 + 2;
        return this;
      }}
    }}
    """


class TestFuzzing:
    @given(programs(annotated=True))
    @settings(max_examples=120, deadline=None)
    def test_checker_never_crashes(self, source):
        report = check_program(source)  # must not raise
        assert isinstance(report.self_stabilizing, bool)

    @given(programs(annotated=True))
    @settings(max_examples=60, deadline=None)
    def test_printer_roundtrip(self, source):
        printed = print_program(parse_program(source))
        assert print_program(parse_program(printed)) == printed

    # A store through ``self()``, which returns ``this``, aliases the
    # receiver, and the linear check rejects that whatever the location
    # annotations say.
    @given(programs(annotated=False, call_stores=False))
    @settings(max_examples=60, deadline=None)
    def test_inference_output_always_verifies(self, source):
        info = analyze(source)
        result = infer_annotations(info, mode="sinfer")
        # inference may legitimately produce annotations that the
        # *eviction* analysis rejects (non-stabilizing generated program,
        # Section 5.2.7) — but the flow-down typing itself must hold
        if not result.verified:
            kinds = {d.check.value for d in result.check_report.errors}
            assert kinds <= {"shared", "eviction"}, (
                kinds, result.check_report.format(), source
            )
