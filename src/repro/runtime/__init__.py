"""Execution substrate for sjava programs.

The paper evaluates self-stabilization by running the benchmarks on the
JVM with compiler-injected faults (Section 6.2).  This package provides
the equivalent: an AST interpreter implementing SJava's crash-avoidance
code-generation semantics (Section 4.4 — uncaught errors are logged and
given defined behavior; possibly-unbounded loops are bounded), simulated
input devices, a fault injector that replaces the result of a randomly
chosen memory or arithmetic operation with a random value, and the
stabilization-experiment harness that measures recovery distances.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "devices": ("DeviceBus", "ScriptedDevice", "synthetic_inputs"),
    "injection": ("ErrorInjector",),
    "interpreter": (
        "Interpreter", "RuntimeOptions", "SJavaRuntimeError",
        "StepBudgetExceeded",
    ),
    "stabilization": (
        "InjectionTrial", "StabilizationExperiment", "recovery_distance",
    ),
})
