"""The k ladder of `dezawl verify`: one fresh process per rung, each run
recorded as one row of BENCH_ladder.json at the root of the repository.

    python3 tools/ladder.py --label parent --src PARENT_CHECKOUT --session S
    python3 tools/ladder.py --label change --session S

The ladder is `verify --k K` for K = 128, 129, 256, 257 and 512, and the
negative controls `verify --k K --drop-edge 0 2` for K = 64 and 128, which
exit 1. Each rung runs `python -m dezawl` from the src/ directory of the
checkout given by --src (this one by default), on one BLAS thread, in an
empty working directory.
A row holds the label, the arguments after `python -m dezawl`, the exit
code, the wall time from spawn to exit, the peak RSS (ru_maxrss from
os.wait4), the phase times of the `timing` lines and the counters of the
`work` lines on stderr, and the sha256 of the JSON report. It names the
tree it ran: the sha256 of its src/ files, computed as perfbench/run.py
computes it, the git commit when src/ is a clean git checkout (else null),
and the session, by default the UTC time at which the run started.

Rows are appended to the file given by --out, so the rows of a parent and
of a change measured in one session sit side by side; pass both runs the
same --session. A machine's speed drifts between sessions, so compare rows
of one session only. --k replaces the ladder by plain `verify --k K` runs,
e.g. `--k 3` for a smoke run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

LADDER = [["verify", "--k", str(k)] for k in (128, 129, 256, 257, 512)] + [
    ["verify", "--k", str(k), "--drop-edge", "0", "2"] for k in (64, 128)
]

# One BLAS thread, so each rung is one single-threaded process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_TIMING = re.compile(r"timing (\w+): ([0-9.]+)s")
_WORK = re.compile(r"work (\w+): (.*)")


def _counter(value: str):
    return int(value) if value.lstrip("-").isdigit() else value


def parse_stderr(text: str) -> tuple[dict[str, float], dict[str, dict]]:
    """The phase times of the `timing` lines and the counters of the `work`
    lines that `dezawl verify` writes to stderr."""
    timings: dict[str, float] = {}
    work: dict[str, dict] = {}
    for line in text.splitlines():
        if m := _TIMING.fullmatch(line):
            timings[m[1]] = float(m[2])
        elif m := _WORK.fullmatch(line):
            work[m[1]] = {key: _counter(value) for key, _, value in
                          (field.partition("=") for field in m[2].split())}
    return timings, work


def source_sha256(src: Path) -> str:
    """Digest of the checkout's src/ files, as perfbench/run.py forms it."""
    digest = hashlib.sha256()
    for path in sorted((src / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha(src: Path) -> str | None:
    """The checkout's HEAD commit, or None unless src/ is a clean git tree."""
    if not (src / ".git").exists():
        return None
    git = ["git", "-C", str(src)]
    try:
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
        dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode or dirty.returncode or dirty.stdout:
        return None
    return head.stdout.strip()


def run_rung(argv: list[str], src: Path, label: str) -> dict:
    """Run `python -m dezawl *argv` once and return its row."""
    with tempfile.TemporaryDirectory(prefix="dezawl-ladder-") as tmp:
        work_dir = Path(tmp)
        report = work_dir / "report.json"
        cmd = [sys.executable, "-m", "dezawl", *argv, "--json", str(report)]
        env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1",
                   **BLAS_ENV)
        with open(work_dir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=work_dir, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        timings, work = parse_stderr((work_dir / "stderr").read_text(encoding="utf-8"))
        sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    return {
        "label": label,
        "argv": argv,
        "exit_code": code,
        "wall_s": round(wall, 3),
        "max_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "timings": timings,
        "work": work,
        "report_sha256": sha,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dezawl verify at a ladder of k")
    parser.add_argument("--label", required=True, help="name of this side, e.g. parent")
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    parser.add_argument("--k", type=int, action="append",
                        help="run plain `verify --k K` instead of the ladder (repeatable)")
    parser.add_argument("--session", default=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                        help="stamp shared by the rows of one session (default: now, UTC)")
    args = parser.parse_args(argv)

    if not (args.src / "src" / "dezawl").is_dir():
        print(f"error: no src/dezawl under {args.src}", file=sys.stderr)
        return 2
    rungs = [["verify", "--k", str(k)] for k in args.k] if args.k else LADDER
    data = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    data["environment"] = environment()
    src = args.src.resolve()
    tree = {"src_sha256": source_sha256(src), "git_sha": git_sha(src), "session": args.session}
    for rung in rungs:
        row = run_rung(rung, src, args.label) | tree
        print(f"{args.label} {' '.join(rung)}: exit {row['exit_code']}, {row['wall_s']} s,"
              f" {row['max_rss_mb']} MB", flush=True)
        data["rows"].append(row)
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
