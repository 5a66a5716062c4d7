import importlib
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
