import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_console_scripts_resolve():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_traced_probe_resolves_a_binding(monkeypatch):
    # the traced benchmark run reports a probe whose bindings are all gone
    # as missing and blanks its metrics; catch a refactor that drops one
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [name for name, (bindings, _) in tracer.PROBES.items()
               if not any(tracer._resolve(b) for b in bindings)]
    assert not missing
