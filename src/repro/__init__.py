"""repro — a reproduction of *Self-Stabilizing Java* (Eom & Demsky,
PLDI 2012; Eom's UC Irvine dissertation, 2016).

SJava statically checks that an event-loop program **self-stabilizes**:
after an arbitrary state corruption it returns to the exact correct
state within a bounded number of iterations.  This package provides:

* :mod:`repro.lang` — the sjava mini-language (lexer, parser, AST,
  conventional type checker, printer);
* :mod:`repro.core` — the location type system, the flow-down rule, the
  linear type discipline, the eviction / shared-location / termination
  analyses, and the checker driver;
* :mod:`repro.infer` — SInfer, the annotation inference algorithm
  (value flow graphs → hierarchy graphs → Dedekind–MacNeille lattices,
  with the SInfer simplification);
* :mod:`repro.runtime` — the interpreter (with crash-avoidance
  semantics), simulated devices, fault injection and the stabilization
  experiment harness;
* :mod:`repro.apps` — the paper's benchmark applications ported to the
  mini-language.

Quick start::

    from repro import check_program
    report = check_program(source_text)
    assert report.self_stabilizing
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core.checker": (
        "CheckReport", "SJavaChecker", "check_parsed", "check_program",
    ),
    "infer.engine": (
        "InferenceEngine", "InferenceResult", "infer_annotations",
    ),
    "lang.parser": ("parse_program",),
    "lang.symtab": ("resolve_program",),
    "lang.typecheck": ("typecheck_program",),
    "runtime.injection": ("ErrorInjector",),
    "runtime.interpreter": ("Interpreter", "RuntimeOptions"),
    "runtime.stabilization": ("StabilizationExperiment",),
})
