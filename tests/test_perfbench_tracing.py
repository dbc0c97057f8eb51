"""The traced benchmark run wraps program functions by name; every name must still exist."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    missing = [
        f"{namespace.__name__}.{attr}"
        for namespace, attr, _span, _count in tracing.PATCHES
        if not callable(getattr(namespace, attr, None))
    ]
    assert missing == []
