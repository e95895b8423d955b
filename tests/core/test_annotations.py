"""Annotation grammar tests (Fig. 3.3)."""

import pytest

from repro.core import annotations as anns
from repro.lang import parse_program


class TestLatticeDecl:
    def test_single_ordering(self):
        decl = anns.parse_lattice_decl("A<B")
        assert decl.orderings == (anns.OrderEntry("A", "B"),)

    def test_multiple_orderings(self):
        decl = anns.parse_lattice_decl("A<B, B<C")
        assert len(decl.orderings) == 2

    def test_shared_entries(self):
        decl = anns.parse_lattice_decl("A<B,I*,J*")
        assert decl.shared == ("I", "J")

    def test_standalone_entries(self):
        decl = anns.parse_lattice_decl("A<B,C")
        assert decl.standalone == ("C",)

    def test_standalone_not_duplicated_when_shared(self):
        decl = anns.parse_lattice_decl("S*,S")
        assert decl.shared == ("S",)
        assert decl.standalone == ()

    def test_empty_payload(self):
        decl = anns.parse_lattice_decl("")
        assert decl.orderings == () and decl.shared == ()

    def test_whitespace_tolerated(self):
        decl = anns.parse_lattice_decl("  A < B ,  C* ")
        assert decl.orderings[0] == anns.OrderEntry("A", "B")
        assert decl.shared == ("C",)

    def test_all_names(self):
        decl = anns.parse_lattice_decl("A<B,S*,X")
        assert decl.all_names() == {"A", "B", "S", "X"}

    def test_invalid_name_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_lattice_decl("A<9bad")

    def test_empty_entry_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_lattice_decl("A<B,,C<D")


class TestLocSpec:
    def test_single_element(self):
        spec = anns.parse_loc_spec("IN")
        assert spec.elements == (anns.LocElementRef("IN"),)
        assert spec.delta_depth == 0

    def test_composite(self):
        spec = anns.parse_loc_spec("CAOBJ,TMP")
        assert [e.name for e in spec.elements] == ["CAOBJ", "TMP"]

    def test_class_qualified(self):
        spec = anns.parse_loc_spec("WDOBJ,WindRec.DIR0")
        assert spec.elements[1].class_name == "WindRec"
        assert spec.elements[1].name == "DIR0"

    def test_delta_wrapping(self):
        spec = anns.parse_loc_spec("DELTA(WDOBJ,DIR0)")
        assert spec.delta_depth == 1
        assert [e.name for e in spec.elements] == ["WDOBJ", "DIR0"]

    def test_nested_delta(self):
        spec = anns.parse_loc_spec("DELTA(DELTA(X))")
        assert spec.delta_depth == 2

    def test_unbalanced_parens(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_loc_spec("DELTA(X")

    def test_empty_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_loc_spec("  ")

    def test_str_roundtrip(self):
        spec = anns.parse_loc_spec("DELTA(A,B)")
        assert str(spec) == "DELTA(A,B)"


class TestSingleLoc:
    def test_simple(self):
        assert anns.parse_single_loc("BIN") == "BIN"

    def test_composite_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_single_loc("A,B")

    def test_delta_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_single_loc("DELTA(A)")

    def test_qualified_rejected(self):
        with pytest.raises(anns.AnnotationSyntaxError):
            anns.parse_single_loc("C.A")


class TestAnnotationCounting:
    SOURCE = '''
    @LATTICE("A<B")
    class T {
      @LOC("A") int f;
      @LATTICE("X<Y") @THISLOC("X") @RETURNLOC("Y")
      int m(@LOC("Y") int p) {
        @LOC("X") int v = p;
        return v;
      }
    }
    @METHODDEFAULT("P<Q")
    class U { }
    '''

    def test_counts(self):
        program = parse_program(self.SOURCE)
        counts = anns.count_annotations(program)
        # @LOC ×3 (field, param, var) + @THISLOC + @RETURNLOC = 5
        assert counts.loc == 5
        assert counts.lattice == 2
        assert counts.method_default == 1

    def test_by_name_breakdown(self):
        program = parse_program(self.SOURCE)
        counts = anns.count_annotations(program)
        assert counts.by_name["LOC"] == 3
        assert counts.by_name["THISLOC"] == 1

    def test_for_initializer_annotations_are_counted(self):
        program = parse_program('''
        class T {
          @LATTICE("X<Y")
          void m() {
            @MAXLOOP(4)
            for (@LOC("X") int i = 0; i < 4; i++) {
              @LOC("Y") int v = i;
            }
          }
        }
        ''')
        counts = anns.count_annotations(program)
        assert counts.by_name["LOC"] == 2
        assert counts.by_name["MAXLOOP"] == 1
