"""``tools/annotation_smoke.py``: the typed packages' annotations resolve,
and a name an annotation uses but its module never binds is reported."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    path = os.path.join(ROOT, "tools", "annotation_smoke.py")
    spec = importlib.util.spec_from_file_location("annotation_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def typed_packages():
    with open(os.path.join(ROOT, "Makefile")) as handle:
        line = next(l for l in handle if l.startswith("TYPED_PACKAGES"))
    return [os.path.join(ROOT, p) for p in re.split(r"\s+", line.split("=", 1)[1].strip())]


def test_typed_packages_resolve():
    checked, failures = load_tool().check(typed_packages())
    assert checked > 225  # 250 objects: isa/cfg.py, kernel_lint, obs, trace, feedback, cli.py
    assert failures == []


def test_an_unbound_annotation_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "src" / "smokepkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "def fine(x: Decimal) -> int:\n"
        "    return 0\n"
        "class Holder:\n"
        "    def broken(self, x: Undefined) -> None:\n"
        "        pass\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    checked, failures = load_tool().check([str(package)])
    assert checked == 3
    assert failures == ["smokepkg.Holder.broken: NameError: name 'Undefined' is not defined"]
