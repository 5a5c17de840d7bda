import ast
import doctest
import importlib
from pathlib import Path

from per_w_caches import per_w_cache_decorators

import hesscells
import hesscells.cells
import hesscells.cli
import hesscells.combinat
import hesscells.frobenius
import hesscells.groebner
import hesscells.polyring

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hesscells"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; internal invariants must raise
    # InternalError explicitly instead, the one exception `cli.main` reports
    # as an internal error by name
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
        ]
    assert found == []


def test_every_export_resolves():
    missing = [name for name in hesscells.__all__ if not hasattr(hesscells, name)]
    assert missing == []


def test_doctests_pass():
    for module in (hesscells.polyring, hesscells.combinat, hesscells.groebner,
                   hesscells.cells, hesscells.frobenius):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__


def _perfbench_literal(name):
    """The literal a top-level assignment in perfbench/spans.py binds to
    `name`, read without importing (or byte-compiling) the file."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == name)


def test_perfbench_bindings_resolve():
    # a traced perfbench run fails on a span whose binding is gone, and its
    # set-up mark wraps sweep._case_args
    missing = [
        f"hesscells.{module}.{metric.rsplit('.', 1)[1]}"
        for metric, modules in _perfbench_literal("SPANS")
        for module in modules
        if not callable(getattr(importlib.import_module(f"hesscells.{module}"),
                                metric.rsplit(".", 1)[1], None))
    ]
    missing += [
        f"hesscells.polyring.Polynomial.{method}"
        for _, methods in _perfbench_literal("POLY_SPANS")
        for method in methods
        if method not in hesscells.polyring.Polynomial.__dict__
    ]
    assert missing == []
    assert callable(importlib.import_module("hesscells.sweep")._case_args)


def test_the_sweep_leaves_these_span_bindings_uncalled(monkeypatch, capsys):
    # a span times only the calls made through the binding it wraps, so a
    # binding no sweep calls reads 0 calls; a change that silences a span,
    # or makes one speak again, changes this pin (ROADMAP item 1)
    calls = {}

    def counting(fn, binding):
        def span(*args, **kwargs):
            calls[binding] += 1
            return fn(*args, **kwargs)
        return span

    for metric, modules in _perfbench_literal("SPANS"):
        name = metric.rsplit(".", 1)[1]
        for module in modules:
            binding, mod = f"{module}.{name}", importlib.import_module(f"hesscells.{module}")
            calls[binding] = 0
            monkeypatch.setattr(mod, name, counting(getattr(mod, name), binding))
    assert hesscells.cli.main(["sweep", "--max-n", "4", "--frobenius", "2", "--format", "json",
                               "--jobs", "1"]) == 0
    capsys.readouterr()
    assert {binding for binding, count in calls.items() if not count} == {
        "cli.sweep", "frobenius.fixed_points", "frobenius.reduce", "groebner.reduce",
        "groebner.s_polynomial", "sweep.fixed_points", "sweep.hilbert_formula",
        "sweep.run_case", "sweep.triangular_analysis"}


def test_every_imported_name_is_used():
    # a name bound only for a perfbench span is the one exemption; the
    # package's __all__ counts as a use
    spans = {(module, metric.rsplit(".", 1)[1])
             for metric, modules in _perfbench_literal("SPANS") for module in modules}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "__all__"
            for name in ast.literal_eval(node.value)
        )
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)
                   if (path.stem, name) not in spans]
    assert unused == []


def test_per_w_caches_hold_one_w():
    # a cache keyed by a permutation fills one entry per w of a sweep, so it
    # holds only the w in hand: every caller asks for one w at a time
    per_w = per_w_cache_decorators()
    unbounded = []
    for stem, name, dec in per_w:
        maxsize = [kw.value for kw in getattr(dec, "keywords", ()) if kw.arg == "maxsize"]
        if not (len(maxsize) == 1 and isinstance(maxsize[0], ast.Constant)
                and maxsize[0].value == 1):
            unbounded.append(f"{stem}.{name}")
    assert len(per_w) == 7, [f"{stem}.{name}" for stem, name, _ in per_w]
    assert unbounded == []
