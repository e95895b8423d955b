"""Benchmark applications (Section 6.1) as sjava programs.

* ``wind_sensor`` — the wind direction sensor running example (Fig. 2.1);
* ``weather_index`` — the weather index example (Figs. 5.1 / 5.15);
* ``mp3_decoder`` — the JLayer MP3 decoder analog;
* ``eye_tracker`` — the LEA eye tracking analog;
* ``sumo_robot`` — the Sumo robot controller analog;
* ``heart_monitor`` — a cardiac monitor for the paper's safety-critical
  scenario (Section 1.2), demonstrating ``@METHODDEFAULT``.

:func:`load_app` parses + resolves an application; ``annotated=False``
strips the location annotations (for the inference evaluation, which
takes the benchmarks with all location annotations removed).
Each app ships a deterministic iteration-keyed device generator for the
stabilization experiments.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "registry": (
        "APP_NAMES", "DIST_APP_NAMES", "AppBundle", "all_app_names",
        "app_catalog", "app_device_factory", "app_experiment", "app_source",
        "load_app", "programs_dir", "resolve_experiment",
        "strip_location_annotations",
    ),
})
