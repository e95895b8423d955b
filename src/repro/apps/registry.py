"""Loading, annotation-stripping and device wiring for the benchmarks."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from repro.lang.ast import LOCATION_ANNOTATIONS, Program
from repro.lang.parser import parse_program
from repro.lang.symtab import ProgramInfo, resolve_program
from repro.lang.typecheck import typecheck_program
from repro.runtime.devices import DeviceBus, IterationKeyedDevice

APP_NAMES = (
    "wind_sensor",
    "weather_index",
    "mp3_decoder",
    "eye_tracker",
    "sumo_robot",
    "heart_monitor",
)

#: Distributed apps (repro.dist): one fabric node's program each.  Kept
#: out of APP_NAMES because single-node tooling (device generators,
#: ``repro run``) cannot execute them without a fabric; the registry
#: functions below accept both families.  The tuple lives here — plain
#: data — so repro.dist can import it without a cycle.
DIST_APP_NAMES = (
    "herman_bit",
    "herman_pass",
    "dijkstra_ring",
    "gradient_field",
    "gradient_channel",
)


def all_app_names() -> tuple[str, ...]:
    """Every registered app, single-node then distributed."""
    return APP_NAMES + DIST_APP_NAMES


_STRIP_PATTERN = re.compile(
    r"@(?:" + "|".join(sorted(LOCATION_ANNOTATIONS))
    + r")\s*\(\s*\"[^\"]*\"\s*\)\s*"
)


def strip_location_annotations(source: str) -> str:
    """Remove every location-type annotation from sjava source text."""
    return _STRIP_PATTERN.sub("", source)


def programs_dir() -> Path:
    """Filesystem directory holding the bundled ``.sj`` programs, for
    batch checking (``repro batch``) and tooling that wants real paths."""
    return Path(str(resources.files("repro.apps") / "programs"))


def app_source(name: str, annotated: bool = True) -> str:
    if name not in all_app_names():
        raise KeyError(f"unknown app {name!r}; available: {all_app_names()}")
    source = (
        resources.files("repro.apps") / "programs" / f"{name}.sj"
    ).read_text(encoding="utf-8")
    if not annotated:
        source = strip_location_annotations(source)
    return source


@dataclass
class AppBundle:
    """A parsed and resolved application, ready for checking or running."""

    name: str
    source: str
    program: Program
    info: ProgramInfo


def load_app(name: str, annotated: bool = True) -> AppBundle:
    source = app_source(name, annotated=annotated)
    program = parse_program(source)
    info = resolve_program(program)
    typecheck_program(info)
    return AppBundle(name=name, source=source, program=program, info=info)


# ---------------------------------------------------------------------------
# Deterministic input generators (iteration-keyed: see
# repro.runtime.devices.IterationKeyedDevice for why).
# ---------------------------------------------------------------------------


def _wind_gen(name: str, iteration: int, index: int) -> object:
    # a slowly rotating wind with occasional jitter
    return (iteration // 3 + (iteration * 5 + index) % 2) % 16


def _weather_gen(name: str, iteration: int, index: int) -> object:
    if name == "readTemp":
        return 20.0 + 8.0 * math.sin(0.13 * iteration)
    return 55.0 + 20.0 * math.sin(0.07 * iteration + 1.1)


def _mp3_gen(name: str, iteration: int, index: int) -> object:
    if name == "readHeader":
        return iteration
    if name == "readScale":
        return 0.5 + 0.4 * math.sin(0.7 * iteration + 0.3 * index)
    tick = iteration * 16 + index
    return math.sin(0.31 * tick) + 0.4 * math.sin(0.093 * tick)


def _eye_gen(name: str, iteration: int, index: int) -> object:
    # gaze wanders smoothly; bands and region samples derive from it
    gaze = 40.0 + 25.0 * math.sin(0.17 * iteration)
    return int(gaze + 11.0 * index) % 97


def _robot_gen(name: str, iteration: int, index: int) -> object:
    if name == "readSonar":
        # the opponent approaches and retreats
        return int(10.0 + 8.0 * math.sin(0.23 * iteration))
    # the line sensor fires near the ring edge every so often
    return 14 if iteration % 11 == 7 else 2


def _heart_gen(name: str, iteration: int, index: int) -> object:
    if name == "readSample":
        # ECG-ish: sharp beat spike riding on baseline wander
        phase = iteration % 5
        return (1.0 if phase == 0 else 0.08 * phase) + 0.02 * index
    if name == "readFloat":
        return 0.55 + 0.25 * math.sin(0.11 * iteration)
    # beat gap in ticks
    return 4 + (iteration % 3)


_GENERATORS: dict[str, Callable[[str, int, int], object]] = {
    "wind_sensor": _wind_gen,
    "weather_index": _weather_gen,
    "mp3_decoder": _mp3_gen,
    "eye_tracker": _eye_gen,
    "sumo_robot": _robot_gen,
    "heart_monitor": _heart_gen,
}

#: Default experiment lengths, in event-loop iterations.
DEFAULT_ITERATIONS: dict[str, int] = {
    "wind_sensor": 60,
    "weather_index": 60,
    "mp3_decoder": 40,
    "eye_tracker": 80,
    "sumo_robot": 80,
    "heart_monitor": 80,
}


def app_device_factory(
    name: str, iterations: int | None = None
) -> Callable[[], DeviceBus]:
    """A factory producing fresh identical devices for one app, suitable
    for :class:`repro.runtime.stabilization.StabilizationExperiment`."""
    generator = _GENERATORS[name]
    count = iterations if iterations is not None else DEFAULT_ITERATIONS[name]

    def factory() -> DeviceBus:
        return IterationKeyedDevice(generator, iterations=count)

    return factory


def app_experiment(
    name: str,
    iterations: int | None = None,
    *,
    step_budget: int | None = None,
    step_budget_factor: int | None = None,
):
    """A ready-to-run stabilization experiment for one registered app.

    This is the unit fault-injection campaign workers reconstruct from
    an app name (everything else they need crosses the process boundary
    as plain ints), so it must stay derivable from ``name`` alone.
    """
    from repro.runtime.interpreter import RuntimeOptions
    from repro.runtime.stabilization import StabilizationExperiment

    bundle = load_app(name)
    return StabilizationExperiment(
        bundle.info,
        app_device_factory(name, iterations),
        options=RuntimeOptions(ignore_errors=True),
        step_budget=step_budget,
        step_budget_factor=step_budget_factor,
    )


def resolve_experiment(
    name: str,
    iterations: int | None = None,
    *,
    step_budget: int | None = None,
    step_budget_factor: int | None = None,
):
    """A stabilization experiment for *any* registered app — single-node
    (:class:`StabilizationExperiment`) or distributed
    (:class:`repro.dist.DistExperiment`, where ``iterations`` maps onto
    fabric rounds).  The two expose the same trial interface, so
    campaign workers need only this one entry point.  The dist import is
    lazy to keep single-node paths free of the fabric machinery."""
    if name in APP_NAMES:
        return app_experiment(
            name,
            iterations,
            step_budget=step_budget,
            step_budget_factor=step_budget_factor,
        )
    if name in DIST_APP_NAMES:
        from repro.dist import dist_app_experiment

        return dist_app_experiment(
            name,
            iterations,
            step_budget=step_budget,
            step_budget_factor=step_budget_factor,
        )
    raise KeyError(f"unknown app {name!r}; available: {all_app_names()}")


def _devices_used(source: str) -> list[str]:
    """Device functions an app's source actually calls, in call order."""
    seen: list[str] = []
    for match in re.finditer(r"Device\.(read\w+)", source):
        if match.group(1) not in seen:
            seen.append(match.group(1))
    return seen


def app_catalog(with_sites: bool = False) -> list[dict]:
    """One describing record per registered app (the ``repro apps``
    listing).  ``with_sites=True`` additionally counts each app's
    injectable corruption sites, which requires a clean reference run
    per app and is therefore optional."""
    catalog: list[dict] = []
    for name in all_app_names():
        distributed = name in DIST_APP_NAMES
        record: dict = {
            "name": name,
            "kind": "distributed" if distributed else "single-node",
            "devices": _devices_used(app_source(name)),
        }
        if distributed:
            from repro.dist import dist_app_spec, make_topology

            spec = dist_app_spec(name)
            topology = make_topology(spec.topology)
            record.update({
                "summary": spec.summary,
                "topology": spec.topology,
                "scheduler": spec.scheduler,
                "nodes": topology.nodes,
                "rounds": spec.rounds,
                "state_width": spec.state_width,
            })
        else:
            record["iterations"] = DEFAULT_ITERATIONS[name]
        if with_sites:
            record["sites"] = resolve_experiment(name).total_steps()
        catalog.append(record)
    return catalog
