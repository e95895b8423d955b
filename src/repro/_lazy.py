"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package names each public object once, under the module that defines
it.  Importing the package imports none of those modules: the first
access to a name imports its module and caches the value in the
package namespace, so later reads are plain attribute lookups and a
command loads only the modules it uses.
"""

from __future__ import annotations

from typing import Callable


def lazy_exports(
    namespace: dict, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """Return a package's ``__getattr__``, ``__dir__`` and ``__all__``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    module path relative to the package (``"checker"``,
    ``"core.checker"``) to the names that module defines.  An unknown
    name raises :class:`AttributeError`, so ``hasattr`` and ``from
    package import submodule`` behave as for any module.
    """
    package = namespace["__name__"]
    owners = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # __import__, unlike importlib.import_module, goes through the
        # import statement's machinery, so ``python -X importtime``
        # still lists the modules loaded here.
        value = getattr(__import__(module, namespace, None, (name,), 1), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, sorted(owners)
