"""Smoke run of tools/ladder.py: one rung at k = 3, recorded with the row
shape the committed BENCH_ladder.json uses."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "tools" / "ladder.py"
PHASES = ["deza", "square_identity", "closure", "sring_axioms", "wl2", "wreath", "ddg",
          "spectrum", "grid", "closure_trace"]


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
    assert set(row) == {"label", "argv", "exit_code", "wall_s", "max_rss_mb", "timings",
                        "work", "report_sha256"}
    assert row["label"] == "smoke"
    assert row["argv"] == ["verify", "--k", "3"]
    assert row["exit_code"] == 0
    assert row["wall_s"] > 0 and row["max_rss_mb"] > 0
    assert list(row["timings"]) == PHASES
    assert all(seconds >= 0 for seconds in row["timings"].values())
    assert row["work"] == {
        name: {"path": "hashed", "rounds": row["work"][name]["rounds"], "recheck_rows": 1}
        for name in ("wl2_gamma", "wl2_grid")
    }
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert row["report_sha256"] == golden["verify"]["3"]["sha256"]
    # A second run appends its row.
    assert _run(out)["rows"][0] == row
    assert len(_run(out)["rows"]) == 3


def test_committed_ladder_has_the_same_row_shape():
    data = json.loads((ROOT / "BENCH_ladder.json").read_text())
    assert data["rows"]
    for row in data["rows"]:
        assert set(row) == {"label", "argv", "exit_code", "wall_s", "max_rss_mb", "timings",
                            "work", "report_sha256"}
        assert list(row["timings"]) == PHASES
