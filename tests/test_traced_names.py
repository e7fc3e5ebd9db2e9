"""The library names that the benchmark tracer patches exist where it looks.

perfbench/tracing.py wraps every entry of its TARGETS by reading
owner.__dict__[attr] while a traced run is recorded.  A renamed or deleted
library name would otherwise only fail a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

from coterie import exactla

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def missing_targets(monkeypatch):
    """Metric prefixes whose (owner, attr) the owner does not define itself."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        return [prefix for prefix, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    finally:
        sys.modules.pop("tracing", None)


def test_every_traced_name_is_defined(monkeypatch):
    assert missing_targets(monkeypatch) == []


def test_deleted_name_is_reported(monkeypatch):
    monkeypatch.delattr(exactla, "solve_linear")
    assert missing_targets(monkeypatch) == ["exactla.solve_linear"]
