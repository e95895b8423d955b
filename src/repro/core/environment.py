"""Location environments: resolving annotations into lattices and
composite locations (Sections 2.2, 3.3, 3.6).

:class:`LocationWorld` holds, for a whole program:

* one **field lattice** per class (from the class ``@LATTICE``);
* one **method environment** per method, containing the method lattice
  (from the method ``@LATTICE`` or the class ``@METHODDEFAULT``), the
  locations of ``this`` (``@THISLOC``), parameters (``@LOC``), the return
  value (``@RETURNLOC``), the program counter (``@PCLOC``), static fields
  (``@GLOBALLOC``), and all annotated local variables.

Every method receives its *own* lattice instance (copied from the class
default when needed) so that delta locations inserted while checking one
method never leak into another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import annotations as anns
from repro.core.composite import (
    BOT_LOC,
    CompositeLocation,
    Loc,
    TOP_LOC,
)
from repro.core.errors import Check, DiagnosticSink, Severity
from repro.core.lattice import Lattice, LatticeError
from repro.lang import ast
from repro.lang.symtab import ProgramInfo

TRUSTED = "TRUSTED"


def _copy_lattice(source: Lattice, name: str) -> Lattice:
    copy = Lattice(name=name)
    for low, high in source.direct_edges():
        copy.add_ordering(low, high)
    for element in source.user_elements():
        copy.add_element(element)
    for element in source.shared_elements:
        copy.add_shared(element)
    return copy


@dataclass
class MethodLocEnv:
    """Resolved location information for one method."""

    class_name: str
    method: ast.MethodDecl
    lattice: Lattice
    this_loc: Optional[str] = None
    pc_spec: Optional[anns.LocSpec] = None
    return_spec: Optional[anns.LocSpec] = None
    global_loc: Optional[str] = None
    param_specs: dict[str, anns.LocSpec] = field(default_factory=dict)
    var_specs: dict[str, anns.LocSpec] = field(default_factory=dict)
    delegated: frozenset[str] = frozenset()
    trusted: bool = False

    @property
    def name(self) -> str:
        return f"{self.class_name}.{self.method.name}"


class LocationWorld:
    """All resolved location environments for a program."""

    def __init__(self, info: ProgramInfo, sink: DiagnosticSink) -> None:
        self.info = info
        self.sink = sink
        self.field_lattices: dict[str, Lattice] = {}
        self.field_locs: dict[tuple[str, str], str] = {}
        self.method_envs: dict[tuple[str, str], MethodLocEnv] = {}
        self.trusted_classes: set[str] = set()
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        for cls in self.info.program.classes:
            self._build_class(cls)
        self._merge_inherited_lattices()
        for cls in self.info.program.classes:
            for method in cls.methods:
                self._build_method(cls, method)

    def _merge_inherited_lattices(self) -> None:
        """Fold each superclass's field lattice into its subclasses.

        Section 3.5 requires every location of the parent to appear in the
        subclass hierarchy with the same orderings; merging realizes the
        inherited part, and :mod:`repro.core.inheritance` checks that the
        subclass's own declarations do not contradict it.
        """

        merged: set[str] = set()

        def merge(name: str) -> None:
            if name in merged:
                return
            merged.add(name)
            parent = self.info.classes[name].superclass
            if parent is None:
                return
            merge(parent)
            child_lattice = self.field_lattices[name]
            parent_lattice = self.field_lattices[parent]
            for low, high in parent_lattice.direct_edges():
                child_lattice.add_ordering(low, high)
            for element in parent_lattice.user_elements():
                child_lattice.add_element(element)
            for element in parent_lattice.shared_elements:
                child_lattice.add_shared(element)
            try:
                child_lattice.validate()
            except LatticeError as exc:
                self.sink.report(
                    Check.LATTICE,
                    f"class {name!r} contradicts the ordering it inherits "
                    f"from {parent!r}: {exc}",
                    context=name,
                )
                # Replace with the parent's (consistent) lattice so later
                # queries do not cascade into crashes.
                self.field_lattices[name] = _copy_lattice(
                    parent_lattice, f"class {name}"
                )

        for cls in self.info.program.classes:
            merge(cls.name)

    def _parse_lattice_payload(
        self, payload: object, context: str, node: ast.Node
    ) -> Optional[anns.LatticeDecl]:
        if not isinstance(payload, str):
            self.sink.report(
                Check.ANNOTATION,
                "@LATTICE requires a string payload",
                node=node,
                context=context,
            )
            return None
        try:
            return anns.parse_lattice_decl(payload)
        except anns.AnnotationSyntaxError as exc:
            self.sink.report(Check.ANNOTATION, str(exc), node=node, context=context)
            return None

    def _build_class(self, cls: ast.ClassDecl) -> None:
        lattice = Lattice(name=f"class {cls.name}")
        decl_ann = ast.annotation_named(cls.annotations, "LATTICE")
        if decl_ann is not None:
            decl = self._parse_lattice_payload(decl_ann.value, cls.name, decl_ann)
            if decl is not None:
                for entry in decl.orderings:
                    lattice.add_ordering(entry.lower, entry.higher)
                for shared in decl.shared:
                    lattice.add_shared(shared)
                for name in decl.standalone:
                    lattice.add_element(name)
        if ast.annotation_named(cls.annotations, TRUSTED) is not None:
            self.trusted_classes.add(cls.name)
        self.field_lattices[cls.name] = lattice

        for fld in cls.fields:
            loc_ann = ast.annotation_named(fld.annotations, "LOC")
            if loc_ann is None:
                continue
            try:
                element = anns.parse_single_loc(str(loc_ann.value))
            except anns.AnnotationSyntaxError as exc:
                self.sink.report(
                    Check.ANNOTATION, str(exc), node=fld, context=cls.name
                )
                continue
            if element not in lattice:
                self.sink.report(
                    Check.ANNOTATION,
                    f"field {fld.name!r} uses location {element!r} that is not "
                    f"declared in the @LATTICE of class {cls.name!r}; "
                    "declaring it as an unordered location",
                    node=fld,
                    context=cls.name,
                    severity=Severity.WARNING,
                )
                lattice.add_element(element)
            self.field_locs[(cls.name, fld.name)] = element

        try:
            lattice.validate()
        except Exception as exc:  # LatticeError
            self.sink.report(Check.LATTICE, str(exc), node=cls, context=cls.name)

    def _build_method(self, cls: ast.ClassDecl, method: ast.MethodDecl) -> None:
        context = f"{cls.name}.{method.name}"
        lattice_ann = ast.annotation_named(method.annotations, "LATTICE")
        default_ann = ast.annotation_named(cls.annotations, "METHODDEFAULT")
        lattice = Lattice(name=f"method {context}")
        decl: Optional[anns.LatticeDecl] = None
        if lattice_ann is not None:
            decl = self._parse_lattice_payload(lattice_ann.value, context, lattice_ann)
        elif default_ann is not None:
            decl = self._parse_lattice_payload(default_ann.value, context, default_ann)
        if decl is not None:
            for entry in decl.orderings:
                lattice.add_ordering(entry.lower, entry.higher)
            for shared in decl.shared:
                lattice.add_shared(shared)
            for name in decl.standalone:
                lattice.add_element(name)
        try:
            lattice.validate()
        except Exception as exc:
            self.sink.report(Check.LATTICE, str(exc), node=method, context=context)

        env = MethodLocEnv(class_name=cls.name, method=method, lattice=lattice)
        env.trusted = (
            cls.name in self.trusted_classes
            or ast.annotation_named(method.annotations, TRUSTED) is not None
        )

        this_ann = ast.annotation_named(method.annotations, "THISLOC")
        if this_ann is not None:
            try:
                env.this_loc = anns.parse_single_loc(str(this_ann.value))
                lattice.add_element(env.this_loc)
            except anns.AnnotationSyntaxError as exc:
                self.sink.report(Check.ANNOTATION, str(exc), node=this_ann,
                                 context=context)

        global_ann = ast.annotation_named(method.annotations, "GLOBALLOC")
        if global_ann is not None:
            try:
                env.global_loc = anns.parse_single_loc(str(global_ann.value))
                lattice.add_element(env.global_loc)
            except anns.AnnotationSyntaxError as exc:
                self.sink.report(Check.ANNOTATION, str(exc), node=global_ann,
                                 context=context)

        for ann_name, attr in (("RETURNLOC", "return_spec"), ("PCLOC", "pc_spec")):
            found = ast.annotation_named(method.annotations, ann_name)
            if found is not None:
                try:
                    setattr(env, attr, anns.parse_loc_spec(str(found.value)))
                except anns.AnnotationSyntaxError as exc:
                    self.sink.report(Check.ANNOTATION, str(exc), node=found,
                                     context=context)

        delegated = set()
        for param in method.params:
            if ast.annotation_named(param.annotations, "DELEGATE") is not None:
                delegated.add(param.name)
            loc_ann = ast.annotation_named(param.annotations, "LOC")
            delta_ann = ast.annotation_named(param.annotations, "DELTA")
            spec = self._spec_from(loc_ann, delta_ann, context)
            if spec is not None:
                env.param_specs[param.name] = spec
        env.delegated = frozenset(delegated)

        self._collect_var_specs(method.body, env, context)
        self.method_envs[(cls.name, method.name)] = env

    def _spec_from(
        self,
        loc_ann: Optional[ast.Annotation],
        delta_ann: Optional[ast.Annotation],
        context: str,
    ) -> Optional[anns.LocSpec]:
        try:
            if loc_ann is not None:
                return anns.parse_loc_spec(str(loc_ann.value))
            if delta_ann is not None:
                spec = anns.parse_loc_spec(str(delta_ann.value))
                return anns.LocSpec(
                    elements=spec.elements, delta_depth=spec.delta_depth + 1
                )
        except anns.AnnotationSyntaxError as exc:
            self.sink.report(Check.ANNOTATION, str(exc), context=context)
        return None

    def _collect_var_specs(
        self, stmt: ast.Stmt, env: MethodLocEnv, context: str
    ) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self._collect_var_specs(child, env, context)
        elif isinstance(stmt, ast.VarDecl):
            loc_ann = ast.annotation_named(stmt.annotations, "LOC")
            delta_ann = ast.annotation_named(stmt.annotations, "DELTA")
            spec = self._spec_from(loc_ann, delta_ann, context)
            if spec is not None:
                env.var_specs[stmt.name] = spec
        elif isinstance(stmt, ast.If):
            self._collect_var_specs(stmt.then_body, env, context)
            if stmt.else_body is not None:
                self._collect_var_specs(stmt.else_body, env, context)
        elif isinstance(stmt, ast.While):
            self._collect_var_specs(stmt.body, env, context)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._collect_var_specs(stmt.init, env, context)
            self._collect_var_specs(stmt.body, env, context)

    # -- resolution -------------------------------------------------------

    def env_of(self, class_name: str, method_name: str) -> Optional[MethodLocEnv]:
        return self.method_envs.get((class_name, method_name))

    def field_lattice(self, class_name: str) -> Lattice:
        return self.field_lattices[class_name]

    def field_element(self, class_name: str, field_name: str) -> Optional[str]:
        """The field-lattice element of a field, searching superclasses."""
        for owner in self.info.ancestry(class_name):
            element = self.field_locs.get((owner, field_name))
            if element is not None:
                return element
        return None

    def resolve_spec(
        self,
        spec: anns.LocSpec,
        env: MethodLocEnv,
        *,
        node: Optional[ast.Node] = None,
    ) -> Optional[Loc]:
        """Resolve a parsed location spec to a composite location.

        The first element must belong to the method lattice; subsequent
        elements are resolved against field lattices (by the explicit
        class qualifier, or by unique-name search).  Returns ``None`` and
        reports a diagnostic on failure.
        """
        if not spec.elements:
            return None
        first = spec.elements[0]
        if first.class_name is not None:
            self.sink.report(
                Check.ANNOTATION,
                f"the first element of a composite location must be a method "
                f"location, found qualified {first}",
                node=node,
                context=env.name,
            )
            return None
        if first.name not in env.lattice:
            self.sink.report(
                Check.ANNOTATION,
                f"location {first.name!r} is not declared in the lattice of "
                f"method {env.name}",
                node=node,
                context=env.name,
            )
            return None
        elements = [first.name]
        lattices = [env.lattice]
        for ref in spec.elements[1:]:
            lattice = self._resolve_field_element(ref, env, node)
            if lattice is None:
                return None
            elements.append(ref.name)
            lattices.append(lattice)
        loc: Loc = CompositeLocation(tuple(elements), tuple(lattices))
        for _ in range(spec.delta_depth):
            loc = self.delta(loc)
        return loc

    def _resolve_field_element(
        self, ref: anns.LocElementRef, env: MethodLocEnv, node: Optional[ast.Node]
    ) -> Optional[Lattice]:
        if ref.class_name is not None:
            lattice = self.field_lattices.get(ref.class_name)
            if lattice is None:
                self.sink.report(
                    Check.ANNOTATION,
                    f"unknown class {ref.class_name!r} in location {ref}",
                    node=node,
                    context=env.name,
                )
                return None
            if ref.name not in lattice:
                self.sink.report(
                    Check.ANNOTATION,
                    f"class {ref.class_name!r} declares no location {ref.name!r}",
                    node=node,
                    context=env.name,
                )
                return None
            return lattice
        candidates = [
            lattice
            for lattice in self.field_lattices.values()
            if ref.name in lattice.user_elements()
        ]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            self.sink.report(
                Check.ANNOTATION,
                f"no class declares a field location named {ref.name!r}",
                node=node,
                context=env.name,
            )
        else:
            names = sorted(lat.name for lat in candidates)
            self.sink.report(
                Check.ANNOTATION,
                f"field location {ref.name!r} is ambiguous ({', '.join(names)}); "
                "qualify it as ClassName.location",
                node=node,
                context=env.name,
            )
        return None

    # -- derived locations --------------------------------------------------

    def this_location(self, env: MethodLocEnv) -> Optional[Loc]:
        if env.this_loc is None:
            return None
        return CompositeLocation((env.this_loc,), (env.lattice,))

    def pc_location(self, env: MethodLocEnv) -> Loc:
        """Initial PC location: ``@PCLOC`` if declared, else ⊤."""
        if env.pc_spec is None:
            return TOP_LOC
        resolved = self.resolve_spec(env.pc_spec, env, node=env.method)
        return resolved if resolved is not None else TOP_LOC

    def return_location(self, env: MethodLocEnv) -> Loc:
        """Declared return location: ``@RETURNLOC`` if present, else ⊥
        (any value may be returned, callers learn nothing)."""
        if env.return_spec is None:
            return BOT_LOC
        resolved = self.resolve_spec(env.return_spec, env, node=env.method)
        return resolved if resolved is not None else BOT_LOC

    def param_location(self, env: MethodLocEnv, param: ast.Param) -> Optional[Loc]:
        spec = env.param_specs.get(param.name)
        if spec is None:
            return None
        return self.resolve_spec(spec, env, node=param)

    def var_location(self, env: MethodLocEnv, name: str) -> Optional[Loc]:
        spec = env.var_specs.get(name)
        if spec is None:
            return None
        return self.resolve_spec(spec, env, node=env.method)

    @staticmethod
    def delta(loc: Loc) -> Loc:
        """The delta function (Section 4.1.7): a fresh location strictly
        below ``loc`` and above everything below ``loc``, realized by
        inserting an element into the lattice of the last component.

        Deterministic: ``delta`` of the same location always names the
        same fresh element, so repeated annotations agree.
        """
        if not isinstance(loc, CompositeLocation):
            return loc
        lattice = loc.last_lattice
        fresh = f"Δ({loc.last_element})"
        if fresh not in lattice:
            lattice.insert_below(fresh, loc.last_element)
        return CompositeLocation(
            loc.elements[:-1] + (fresh,), loc.lattices
        )
