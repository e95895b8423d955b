"""What each entry point imports.

A cold ``repro`` command is mostly import time, so each command loads
only the modules it runs: the package inits re-export lazily and the
CLI imports a command's subsystems inside that command.  The daemon is
the opposite case: it imports at start everything its ops run, so no
timed request pays for an import.  Each pin runs in a fresh interpreter,
because the suite itself has long since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import programs_dir

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = (
    "repro",
    "repro.apps",
    "repro.chaos",
    "repro.core",
    "repro.dist",
    "repro.infer",
    "repro.lang",
    "repro.obs",
    "repro.runtime",
    "repro.service",
)


def fresh_modules(script: str, *argv: str, cwd: Path) -> list[str]:
    """Run ``script`` in a fresh interpreter; it prints a JSON list of
    module names as its last line."""
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


# -- cold commands -------------------------------------------------------

COLD_COMMAND = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""

#: What a check never runs: the runtime and everything built on it,
#: SInfer, the batch/daemon service, and the bench/report stack.
CHECK_NEVER = (
    "repro.runtime", "repro.infer", "repro.dist", "repro.apps",
    "repro.chaos",
    "repro.service.pool", "repro.service.cache", "repro.service.server",
    "repro.service.client",
    "repro.obs.bench", "repro.obs.report",
    "repro.obs.exporter", "repro.obs.propagate", "repro.obs.metrics",
    "http.server", "concurrent.futures.process", "multiprocessing",
)

#: What an injection run never runs: the checker, SInfer, the result
#: cache and daemon, the bench/report stack, and (without
#: ``--http-port``) the HTTP exporter.
INJECTION_NEVER = (
    "repro.infer", "repro.core.checker",
    "repro.service.cache", "repro.service.server", "repro.service.client",
    "repro.obs.bench", "repro.obs.report",
    "repro.obs.exporter", "http.server",
)


#: What a serial trial command (``repro inject``, ``repro dist run
#: --inject``) never runs besides: the campaign driver, its process pool
#: and its chaos hooks.
SERIAL_NEVER = INJECTION_NEVER + (
    "repro.runtime.campaign", "repro.service", "repro.chaos",
    "concurrent.futures", "multiprocessing",
)


def matching(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


@pytest.mark.parametrize("argv, never", [
    pytest.param(
        ["check", "--json", str(programs_dir() / "wind_sensor.sj")],
        CHECK_NEVER, id="check",
    ),
    pytest.param(
        ["dist", "run", "--app", "herman_bit", "--inject", "5",
         "--seed", "900"],
        SERIAL_NEVER, id="dist-run",
    ),
    pytest.param(
        ["inject", str(programs_dir() / "wind_sensor.sj"), "--trials", "2",
         "--iterations", "8"],
        SERIAL_NEVER, id="inject",
    ),
    pytest.param(
        ["campaign", "--apps", "wind_sensor", "--trials", "16",
         "--jobs", "1", "--json"],
        INJECTION_NEVER, id="campaign",
    ),
])
def test_cold_command_loads_only_what_it_runs(argv, never, tmp_path):
    modules = fresh_modules(COLD_COMMAND, *argv, cwd=tmp_path)
    assert "repro.cli" in modules
    assert matching(modules, never) == []


# -- the daemon ------------------------------------------------------------

DAEMON_REQUESTS = """
import json, sys
from pathlib import Path
from repro.service.cache import ResultCache
from repro.service.server import ReproServer

source = Path(sys.argv[1]).read_text(encoding="utf-8")
server = ReproServer("repro.sock", cache=ResultCache(disk_dir=Path("cache")))
before = set(sys.modules)
for request in (
    {"op": "check", "source": source},
    {"op": "check", "source": source},
    {"op": "infer", "source": source},
    {"op": "status"},
    {"op": "metrics"},
    {"op": "events"},
):
    response = server.dispatch(json.dumps(request))
    assert response["ok"], response
assert server.dispatch(json.dumps({"op": "status"}))["pool"]["cached"] == 1
server.close()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_daemon_requests_import_nothing(tmp_path):
    """A request never pays for an import: the daemon loaded everything
    its ops run when it started.  ``resource`` is the one exception,
    imported by the first RSS reading as a platform guard."""
    added = fresh_modules(
        DAEMON_REQUESTS, str(programs_dir() / "wind_sensor.sj"),
        cwd=tmp_path,
    )
    assert set(added) <= {"resource"}


# -- the lazy-export contract ----------------------------------------------

def export_map(package: str) -> dict[str, tuple[str, ...]]:
    """The module → names map the package init hands to lazy_exports."""
    init = Path(importlib.import_module(package).__file__)
    calls = [
        node for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "lazy_exports"
    ]
    assert len(calls) == 1
    return ast.literal_eval(calls[0].args[1])


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports(package):
    module = importlib.import_module(package)
    exports = export_map(package)
    names = [name for group in exports.values() for name in group]
    assert len(names) == len(set(names)), "a name is exported twice"
    assert sorted(module.__all__) == sorted(names)
    for submodule, group in exports.items():
        defining = importlib.import_module(f"{package}.{submodule}")
        for name in group:
            assert getattr(module, name) is getattr(defining, name), name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_export
    assert not hasattr(module, "no_such_export")
