#!/usr/bin/env python3
"""Annotation smoke for the strict-typed packages, standard library only.

Imports every module under the given package directories (or the given
module files) and resolves the annotations of each module-level function
and class (and the functions, static and class methods a class defines)
with :func:`typing.get_type_hints`.  A name an annotation
uses but the module never binds — a missing import, a typo, a renamed
class — fails here, without ruff or mypy installed.

Names a module imports only under ``if TYPE_CHECKING:`` are resolved by
running those import blocks against a copy of the module's namespace
(every module is loaded by then, so they cannot cycle).  ``array.array`` is not
subscriptable at runtime before Python 3.12; older interpreters resolve
``array[...]`` through a subscriptable stand-in.

Run::

    PYTHONPATH=src python tools/annotation_smoke.py src/repro/obs tests/kernel_lint ...

Exits 1 and lists every unresolvable annotation, else prints a count.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import sys
import typing
from array import array
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, Iterator, List, Tuple


class _SubscriptableArray(array):  # type: ignore[type-arg]
    def __class_getitem__(cls, item: object) -> type:
        return cls


def _modules(path: str) -> Iterator[ModuleType]:
    """The package at ``path`` and every module under it, or the one
    module a ``.py`` path names.  Its dotted name starts below the nearest
    enclosing directory that is not a package, which joins ``sys.path``
    (``src`` for ``src/repro/obs``, the checkout for ``tests/kernel_lint``)."""
    target = Path(path).resolve().with_suffix("")
    root = target.parent
    while (root / "__init__.py").exists():
        root = root.parent
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    name = ".".join(target.relative_to(root).parts)
    package = importlib.import_module(name)
    yield package
    for info in pkgutil.walk_packages(getattr(package, "__path__", []), name + "."):
        yield importlib.import_module(info.name)


def _extra_names(module: ModuleType) -> Dict[str, Any]:
    """What the module's ``if TYPE_CHECKING:`` blocks bind, plus the
    ``array`` stand-in where the interpreter needs one."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__ or module.__name__, "exec"), namespace)
    extra = {name: value for name, value in namespace.items()
             if name not in vars(module)}
    if sys.version_info < (3, 12) and namespace.get("array") is array:
        extra["array"] = _SubscriptableArray
    return extra


def _targets(module: ModuleType) -> Iterator[Tuple[str, Any]]:
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static/class methods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def check(package_dirs: List[str]) -> Tuple[int, List[str]]:
    """``(objects checked, failure lines)`` over ``package_dirs`` (package
    directories or module files)."""
    checked = 0
    failures = []
    for package_dir in package_dirs:
        for module in _modules(package_dir):
            extra = _extra_names(module)
            for label, obj in _targets(module):
                checked += 1
                try:
                    # Names resolve in the extras, then in the globals of
                    # the module that defines each object (or base class).
                    typing.get_type_hints(obj, localns=extra)
                except Exception as exc:  # any unresolvable annotation
                    failures.append(f"{module.__name__}.{label}: "
                                    f"{type(exc).__name__}: {exc}")
    return checked, failures


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    checked, failures = check(argv)
    for line in failures:
        print(line)
    if failures:
        print(f"annotation smoke: {len(failures)} of {checked} objects fail")
        return 1
    print(f"annotation smoke: {checked} objects resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
