"""The benchmark scripts in perfbench/ reach into dezawl by name: sring_path.py
calls the public functions, and spans.py wraps a few module-level functions
(its INNER table) to time them. A rename or deletion in src/ that breaks them
must fail here, not only when the benchmark runs. So must a package
__all__ that names something the package no longer imports."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import dezawl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _dezawl_reads(tree: ast.Module) -> set[str]:
    """Every dotted name read below the dezawl package, e.g. 'cayley_graph'
    for dezawl.cayley_graph and 'verify.expected_wl_rank'."""
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "dezawl":
            names.add(".".join(reversed(chain)))
    return names


def _resolve(dotted: str):
    obj = dezawl
    for part in dotted.split("."):
        if not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def _inner_table() -> set[str]:
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["INNER"]:
            table = ast.literal_eval(node.value)
            return {f"{layer}.{attr}" for layer, attrs in table.items() for attr in attrs}
    raise AssertionError("spans.py has no INNER table")


def test_every_name_sring_path_reads_resolves():
    names = _dezawl_reads(_tree("sring_path.py"))
    assert {"cayley_graph", "deza_parameters", "closure_trace",
            "verify.expected_wl_rank"} <= names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing


def test_every_inner_span_is_a_module_function_called_by_global_name():
    names = _inner_table()
    assert {"wl.wl2", "wl.verify_coherence", "graphs.diameter",
            "sring.wl_closure", "groupring.multiply"} <= names
    for dotted in sorted(names):
        layer, attr = dotted.split(".")
        module = importlib.import_module(f"dezawl.{layer}")
        func = getattr(module, attr)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, dotted
        # spans.py replaces the module attribute, so the calls it must see
        # have to look the name up in the module's globals.
        callers = [f for f in vars(module).values()
                   if inspect.isfunction(f) and f.__module__ == module.__name__
                   and attr in f.__code__.co_names]
        assert callers, dotted


def test_spectrum_count_reads_result_attributes(cache):
    """spans.py RESULT_COUNTS counts the eigenvalues a spectrum verdict
    certified through IntegralSpectrum.pairs and NonIntegralVerdict.certified;
    if either attribute went away, the traced count would silently read 0."""
    assert "pairs" in dezawl.IntegralSpectrum._fields
    assert "certified" in dezawl.NonIntegralVerdict._fields
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    count = spans.RESULT_COUNTS["spectrum.integral_spectrum"]
    gamma = cache.graph(3)
    assert count(dezawl.integral_spectrum(gamma)) == 5
    broken = dezawl.integral_spectrum(gamma.without_edge(0, gamma.neighbors(0)[0]))
    assert count(broken) == len(broken.certified) > 0


def test_wl2_spans_are_tagged_and_each_holds_its_recheck():
    """The benchmark's wl.wl2_gamma_s and wl.wl2_grid_s are the self times of
    the wl.wl2 spans tagged gamma and grid. They need verify_family to hand
    the graphs built by cayley_graph and grid_graph straight to wl2, which
    calls verify_coherence inside; a changed call shape would silently read 0."""
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wl = importlib.import_module("dezawl.wl")
    original = wl.wl2
    recorder = spans.Recorder()
    recorder.install()
    try:
        report = importlib.import_module("dezawl.verify").verify_family(3)
    finally:
        recorder.uninstall()
    assert wl.wl2 is original
    assert report.verdict == "pass"
    wl2_spans = [i for i, span in enumerate(recorder.spans) if span[0] == "wl.wl2"]
    assert [recorder.spans[i][1] for i in wl2_spans] == ["gamma", "grid"]
    for i in wl2_spans:
        children = [span[0] for span in recorder.spans if span[2] == i]
        assert children == ["wl.verify_coherence"]


# Modules that no certificate needs and whose use costs resident memory or
# start-up time: numpy.random about 5.4 MB on import; dataclasses, whose
# classes compile their generated methods at import (the 16 records took
# about 8 ms as @dataclass). A certificate that loads one of them loses the
# peak RSS and the time its phases were trimmed for.
HEAVY_MODULES = ("numpy.random", "numpy.ma", "fractions", "scipy", "dataclasses")

_LOADED_AFTER_VERIFY = """
import json, sys
from dezawl.cli import main
code = main(["verify", "--k", "4", "--json", sys.argv[1]])
with open(sys.argv[2], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def test_verify_loads_no_heavy_module(tmp_path):
    out = tmp_path / "modules.json"
    # The child imports the dezawl this test imported, from any directory.
    src = str(Path(dezawl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_VERIFY, str(tmp_path / "report.json"), str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(out.read_text())
    assert loaded["code"] == 0
    assert "dezawl.spectrum" in loaded["modules"]
    heavy = [m for m in loaded["modules"]
             if any(m == h or m.startswith(h + ".") for h in HEAVY_MODULES)]
    assert not heavy


def test_all_lists_exactly_the_imported_names():
    """dezawl.__all__ names each name dezawl/__init__.py imports once and no
    other, so a name dropped from the imports but left in __all__ fails
    here rather than at a user's star import."""
    tree = ast.parse(Path(dezawl.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert sorted(dezawl.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    namespace: dict = {}
    exec("from dezawl import *", namespace)
    assert set(dezawl.__all__) <= set(namespace)
