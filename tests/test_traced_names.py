"""The library data and names that the benchmark reads exist as it expects.

perfbench/tracing.py wraps every entry of its TARGETS by reading
owner.__dict__[attr] while a traced run is recorded, and
perfbench/workloads.py builds its seeded points from rs.inv_coeffs through
its own ratio().  Every perfbench module also reads library names directly
(cone.cross_section, coterie.BACKEND, ...) and the self-test patches some
by name; a syntax scan of perfbench/*.py, and of the scripts it keeps in
strings, lists all of them.  A renamed or deleted library name, or a change
in the type of the root data, would otherwise only fail a benchmark run.
"""

import ast
import importlib
import sys
from fractions import Fraction
from pathlib import Path

import coterie
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


def perfbench_trees():
    """The syntax tree of every perfbench module, and of every string in one
    that imports coterie (a script it runs in a fresh interpreter)."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        yield tree
        for node in ast.walk(tree):
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(text, str) and ("import coterie" in text or "from coterie import" in text):
                yield ast.parse(text)


def dotted(node):
    """'a.b.c' for a chain of attribute reads on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def library_aliases(tree) -> dict:
    """Local name -> dotted library name, from the tree's coterie imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "coterie":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "coterie":
                    aliases[a.asname or a.name] = "coterie"
    return aliases


def benchmark_reads() -> set:
    """Dotted library names the benchmark reads: every attribute chain on a
    name imported from coterie (cone.member_all, exactla.ConeSystem,
    coterie.BACKEND, ...), and every patched(owner, "name", ...) target."""
    names = set()
    for tree in perfbench_trees():
        aliases = library_aliases(tree)

        def library_name(chain):
            head, _, rest = chain.partition(".")
            return f"{aliases[head]}.{rest}" if head in aliases and rest else None

        for node in ast.walk(tree):
            chain = None
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                chain = dotted(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "patched"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                owner = dotted(node.args[0])
                chain = owner and f"{owner}.{node.args[1].value}"
            name = chain and library_name(chain)
            if name:
                names.add(name)
    return names


def missing_reads() -> list:
    """The benchmark's library names that do not resolve, sorted."""
    missing = []
    for name in sorted(benchmark_reads()):
        module, *attrs = name.removeprefix("coterie.").split(".")
        try:
            obj = importlib.import_module(f"coterie.{module}")
        except ModuleNotFoundError:  # a package attribute, not a module
            obj, attrs = coterie, [module, *attrs]
        for part in attrs:
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    return missing


def ratio_drift(workloads) -> list:
    """(type, b, a) for every ordered pair where the benchmark's ratio is
    not a Fraction equal to rootsys.ratio."""
    out = []
    for t in rootsys.all_types():
        rs = rootsys.build(t)
        for b, a in cone.ordered_pairs(rs, reduced=False):
            q = workloads.ratio(rs, b, a)
            if not isinstance(q, Fraction) or q != rootsys.ratio(rs, b, a):
                out.append((str(t), b, a))
    return out


def test_every_traced_name_is_defined(monkeypatch):
    assert missing_targets(monkeypatch) == []


def test_deleted_name_is_reported(monkeypatch):
    monkeypatch.delattr(exactla, "solve_linear")
    assert missing_targets(monkeypatch) == ["exactla.solve_linear"]


def test_every_name_the_benchmark_reads_is_defined():
    reads = benchmark_reads()
    # the scan sees module attributes, the self-test's patch targets, the
    # backend flag and the fresh-interpreter set-up script
    assert {"cone.cross_section", "cone.member", "coterie.BACKEND", "cone.inequalities", "cli.main"} <= reads
    assert missing_reads() == []


def test_deleted_read_is_reported(monkeypatch):
    monkeypatch.delattr(cone, "cross_section")
    assert missing_reads() == ["cone.cross_section"]


def test_deleted_patch_target_is_reported(monkeypatch):
    # cone.member is read only as the self-test's patch target
    monkeypatch.delattr(cone, "member")
    assert missing_reads() == ["cone.member"]


def test_deleted_backend_flag_is_reported(monkeypatch):
    monkeypatch.delattr(coterie, "BACKEND")
    assert missing_reads() == ["coterie.BACKEND"]


def test_benchmark_ratio_is_the_library_ratio(monkeypatch):
    assert ratio_drift(perfbench_module(monkeypatch, "workloads")) == []


def test_integer_inv_coeffs_is_reported(monkeypatch):
    workloads = perfbench_module(monkeypatch, "workloads")
    # an integer table makes the benchmark's c[b][a] / c[a][a] a float
    monkeypatch.setattr(rootsys.RootSystem, "inv_coeffs", property(lambda rs: rs.weights))
    pairs = sum(t.rank * (t.rank - 1) for t in rootsys.all_types())
    assert len(ratio_drift(workloads)) == pairs
