"""SInfer: the annotation inference algorithm (Chapter 5).

Pipeline:

1. :mod:`repro.infer.value_flow` — per-method **value flow graphs**
   capturing explicit and implicit flows, with interprocedural summaries
   (Figs. 5.2–5.4);
2. :mod:`repro.infer.cycles` — superfluous-cycle avoidance: method-level
   nodes that both receive from and feed an object's fields are reassigned
   composite locations rooted at that object (Section 5.2.2);
3. :mod:`repro.infer.hierarchy` — decomposition into per-method and
   per-class **hierarchy graphs**, merging genuine cycles into shared
   locations (Section 5.2.5);
4. :mod:`repro.infer.simplify` — the SInfer simplification: redundant
   edge removal and same-neighborhood node merging over the hierarchy
   graphs (Section 5.3);
5. :mod:`repro.infer.dedekind` — Dedekind–MacNeille completion of each
   hierarchy graph into a lattice (Section 5.2.6);
6. :mod:`repro.infer.engine` — orchestration: the ``naive`` mode (maximal
   precision, Section 5.2) and the ``sinfer`` mode (simplified,
   Section 5.3); emits inferred annotations back onto the program and
   verifies them with the SJava checker;
7. :mod:`repro.infer.metrics` — lattice complexity metrics for the
   Table 6.1 evaluation (location counts and top-to-bottom path counts).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "engine": (
        "InferenceEngine", "InferenceResult", "infer_annotations",
        "timed_infer",
    ),
    "metrics": ("LatticeMetrics", "count_paths", "lattice_metrics"),
})
