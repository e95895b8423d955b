"""SJava's primary contribution: the location type system and the static
analyses that together check self-stabilization.

* :mod:`repro.core.lattice` — location lattices (Ch. 3.2);
* :mod:`repro.core.composite` — composite location types, lexicographic
  ordering, and the GLB algorithm of Fig. 3.2 (Ch. 3.4);
* :mod:`repro.core.annotations` — the annotation grammar of Fig. 3.3;
* :mod:`repro.core.environment` — resolved location environments Γ;
* :mod:`repro.core.flow_checker` — the flow-down rule (Fig. 4.1);
* :mod:`repro.core.linear` — the linear type / ownership discipline;
* :mod:`repro.core.eviction` — the definitely-written analysis
  (Figs. 4.4–4.5) with the shared-location extension;
* :mod:`repro.core.termination` — the loop-termination analysis;
* :mod:`repro.core.inheritance` — subclass lattice-preservation checks;
* :mod:`repro.core.checker` — the driver that runs everything and
  produces a :class:`repro.core.errors.CheckReport`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "checker": ("CheckReport", "SJavaChecker", "check_program"),
    "errors": ("Check", "Diagnostic", "Severity"),
    "lattice": ("BOTTOM", "TOP", "Lattice", "LatticeError"),
})
