"""The library data and names that the benchmark reads exist as it expects.

perfbench/tracing.py wraps every entry of its TARGETS by reading
owner.__dict__[attr] while a traced run is recorded, and
perfbench/workloads.py builds its seeded points from rs.inv_coeffs through
its own ratio().  A renamed or deleted library name, or a change in the
type of the root data, would otherwise only fail a benchmark run.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

from coterie import cone, exactla, rootsys

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)


def missing_targets(monkeypatch):
    """Metric prefixes whose (owner, attr) the owner does not define itself."""
    tracing = perfbench_module(monkeypatch, "tracing")
    return [prefix for prefix, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]


def ratio_drift(workloads) -> list:
    """(type, b, a) for every ordered pair where the benchmark's ratio is
    not a Fraction equal to cone.ratio."""
    out = []
    for t in rootsys.all_types():
        rs = rootsys.build(t)
        for b, a in cone.ordered_pairs(rs, reduced=False):
            q = workloads.ratio(rs, b, a)
            if not isinstance(q, Fraction) or q != cone.ratio(rs, b, a):
                out.append((str(t), b, a))
    return out


def test_every_traced_name_is_defined(monkeypatch):
    assert missing_targets(monkeypatch) == []


def test_deleted_name_is_reported(monkeypatch):
    monkeypatch.delattr(exactla, "solve_linear")
    assert missing_targets(monkeypatch) == ["exactla.solve_linear"]


def test_benchmark_ratio_is_the_library_ratio(monkeypatch):
    assert ratio_drift(perfbench_module(monkeypatch, "workloads")) == []


def test_integer_inv_coeffs_is_reported(monkeypatch):
    workloads = perfbench_module(monkeypatch, "workloads")
    # an integer table makes the benchmark's c[b][a] / c[a][a] a float
    monkeypatch.setattr(rootsys.RootSystem, "inv_coeffs", property(lambda rs: rs.weights))
    pairs = sum(t.rank * (t.rank - 1) for t in rootsys.all_types())
    assert len(ratio_drift(workloads)) == pairs
