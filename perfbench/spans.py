"""Span recorder for dezawl, installed from outside the program.

A span opens at each call into a layer (a module of src/dezawl): the public
functions that one dezawl module imports from another are wrapped in the
importing module's namespace, where the caller looks them up at call time.
A few calls inside one module are wrapped too, because the phases they
separate are the ones later changes aim at (INNER). Each span records its
name, start, end and parent span; spans named in PEAK_SPANS also record
their tracemalloc peak, and spans named in RESULT_COUNTS a count read from
their result. Only public names are wrapped, and the originals are always
restored.

Traced certificate, as run.py spawns it:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json dezawl verify --k 15 --json r.json
    PYTHONPATH=src python3 perfbench/spans.py SPANS.json sring_path --k 48 --out c.json

SPANS.json holds {"spans": [[name, tag, parent, start, end, peak_bytes, count]]}
with parent the index of the enclosing span (-1 for the root), tag "gamma"
or "grid" for calls on the family graph or the grid, and the exit code is
that of the traced command.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
import types

LAYERS = ("group", "groupring", "graphs", "sring", "wl", "spectrum", "verify", "cli")

# Calls inside one module that get their own span: 2-WL refinement and its
# coherence recheck, the diameter inside deza_parameters, the closure that
# closure_trace recomputes, and the group-ring products of the square identity.
INNER = {
    "wl": ("wl2", "verify_coherence"),
    "graphs": ("diameter",),
    "sring": ("wl_closure",),
    "groupring": ("multiply",),
}

# tracemalloc hooks every allocation. The 2-WL spans allocate a few large
# numpy arrays, so it costs them little; the exact elimination in
# integral_spectrum allocates a Python int per step and would run 20x slower.
PEAK_SPANS = {"wl.wl2", "wl.verify_coherence"}

RESULT_COUNTS = {
    "sring.wl_closure": lambda r: r.rank,
    "sring.detect_wreath": len,
    # IntegralSpectrum has pairs, NonIntegralVerdict the certified part.
    "spectrum.integral_spectrum": lambda r: len(getattr(r, "pairs", getattr(r, "certified", ()))),
}

# Constructors whose result is tagged, so later spans on that graph are split.
GRAPH_TAGS = {"graphs.cayley_graph": "gamma", "graphs.grid_graph": "grid"}

# On the sring_path_large workload the sring_path script stands in for the
# pipeline glue (verify) and the entry point (cli).
SCRIPT_LAYERS = {"certify": "verify", "main": "cli"}


class Recorder:
    """Wraps functions, keeps their spans in memory, and undoes the wrapping."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mem: list[list[int]] = []
        self._tags: dict[int, tuple[str, object]] = {}
        self._wrappers: dict[int, types.FunctionType] = {}
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, func):
        """The function func recording a span called name on every call."""
        if id(func) in self._wrappers:
            return self._wrappers[id(func)]
        rec = self
        measure_peak = name in PEAK_SPANS
        count = RESULT_COUNTS.get(name)
        tag_result = GRAPH_TAGS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            tag = rec._tags.get(id(args[0]), (None,))[0] if args else None
            if tag is None and parent >= 0:
                tag = rec.spans[parent][1]
            record = [name, tag, parent, 0.0, 0.0, None, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(record)
            if measure_peak:
                rec._mem_enter()
            record[3] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                if measure_peak:
                    record[5] = rec._mem_exit()
                rec._stack.pop()
            if count is not None:
                record[6] = count(result)
            if tag_result is not None:
                rec._tags[id(result)] = (tag_result, result)
            return result

        self._wrappers[id(func)] = wrapper
        return wrapper

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        elif self._mem:
            # Fold the enclosing span's peak so far in before resetting it.
            outer = self._mem[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        self._mem.append([base, base])

    def _mem_exit(self) -> int:
        base, seen = self._mem.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - base

    def _set(self, module: types.ModuleType, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def install(self, script: types.ModuleType | None = None) -> None:
        """Wrap every layer boundary of dezawl, the INNER calls and, when
        given, the script's SCRIPT_LAYERS functions."""
        package = importlib.import_module("dezawl")
        namespaces = [package] + [importlib.import_module(f"dezawl.{m}") for m in LAYERS]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__
                if owner.startswith("dezawl.") and owner != module.__name__:
                    self._set(module, attr, f"{owner[len('dezawl.'):]}.{obj.__name__}")
        for layer, attrs in INNER.items():
            module = importlib.import_module(f"dezawl.{layer}")
            for attr in attrs:
                self._set(module, attr, f"{layer}.{attr}")
        if script is not None:
            for attr, layer in SCRIPT_LAYERS.items():
                self._set(script, attr, f"{layer}.{attr}")

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def traced_main(entry: str, argv: list[str], recorder: Recorder) -> int:
    """Run the dezawl command or the sring_path script with argv under the
    recorder."""
    if entry == "dezawl":
        import dezawl.cli as module
        script = None
    elif entry == "sring_path":
        import sring_path as module
        script = module
    else:
        raise ValueError(f"unknown entry {entry!r}")
    recorder.install(script)
    try:
        if entry == "dezawl":
            return recorder.wrap("cli.main", module.main)(argv)
        return module.main(argv)
    finally:
        recorder.uninstall()


def main() -> int:
    out, entry, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = Recorder()
    code = traced_main(entry, argv, recorder)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
