"""Smoke run of tools/ladder.py: one rung at k = 3, recorded with the row
shape the committed BENCH_ladder.json uses."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "tools" / "ladder.py"
PHASES = ["deza", "square_identity", "closure", "sring_axioms", "wl2", "wreath", "ddg",
          "spectrum", "grid", "closure_trace"]
RUN_KEYS = {"label", "argv", "exit_code", "wall_s", "max_rss_mb", "timings", "work",
            "report_sha256"}
TREE_KEYS = {"src_sha256", "git_sha", "session"}
# The committed rows recorded before rows named their tree.
UNNAMED_ROWS = 40


def _perfbench_source_sha256():
    """source_sha256 of perfbench/run.py, which imports spans from its own
    directory."""
    perfbench = ROOT / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(perfbench))
    return run.source_sha256()


def _run(out):
    proc = subprocess.run([sys.executable, str(LADDER), "--k", "3", "--label", "smoke",
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_ladder_records_one_row_per_run(tmp_path):
    out = tmp_path / "ladder.json"
    data = _run(out)
    assert set(data) == {"environment", "rows"}
    assert set(data["environment"]) == {"python", "numpy", "machine", "cpus", "blas_threads"}
    [row] = data["rows"]
    assert set(row) == RUN_KEYS | TREE_KEYS
    assert row["src_sha256"] == _perfbench_source_sha256()
    assert row["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", row["git_sha"])
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", row["session"])
    assert row["label"] == "smoke"
    assert row["argv"] == ["verify", "--k", "3"]
    assert row["exit_code"] == 0
    assert row["wall_s"] > 0 and row["max_rss_mb"] > 0
    assert list(row["timings"]) == PHASES
    assert all(seconds >= 0 for seconds in row["timings"].values())
    assert row["work"] == {
        name: {"rounds": row["work"][name]["rounds"], "rejections": 0, "recheck_rows": 1}
        for name in ("wl2_gamma", "wl2_grid")
    }
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert row["report_sha256"] == golden["verify"]["3"]["sha256"]
    # A second run appends its row.
    assert _run(out)["rows"][0] == row
    assert len(_run(out)["rows"]) == 3


def test_committed_ladder_has_the_same_row_shape():
    data = json.loads((ROOT / "BENCH_ladder.json").read_text())
    assert len(data["rows"]) > UNNAMED_ROWS
    for i, row in enumerate(data["rows"]):
        assert set(row) == (RUN_KEYS if i < UNNAMED_ROWS else RUN_KEYS | TREE_KEYS)
        assert list(row["timings"]) == PHASES
