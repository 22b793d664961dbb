"""Benchmark of dezawl certificates: end-to-end time and memory, per-layer spans.

    python3 perfbench/run.py --workload verify_odd --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, never from an installed copy. Workloads (see BENCHMARK.json
for why each was chosen) are closed loops: one certificate process at a
time, the next spawned when the previous has exited, until --seconds have
passed. Inputs are a pure function of k, so --seed is only recorded; --k
overrides the workload's k, e.g. to recheck a claim on the next k of the
same parity.

--trace 0 measures, with tracing off, each certificate's wall time from
spawn to exit, its user + sys CPU and its peak RSS (both from wait4), and
the median set-up time of a fresh interpreter running `import dezawl`.
--trace 1 alternates an untraced certificate with one traced by spans.py and
reports per-layer self times, calls, counts and tracemalloc peaks, plus the
tracing overhead.

Every certificate is checked: exit code 0, report bytes identical to the
seed's (sha256 in golden.json), and every claim against the paper's closed
forms. Any mismatch counts as a failed certificate.

Output: one JSON line of details (environment, raw samples, span table),
then the result line {"correct", "attempted", "failed", "metrics"}.
Exit code 2, without a result, when the checkout has no src/dezawl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (certificate kind, default k)
WORKLOADS = {
    "verify_odd": ("verify", 15),
    "verify_even": ("verify", 16),
    "sring_path_large": ("sring_path", 48),
}

# One BLAS thread, so all load is one single-threaded process at a time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SAMPLES = 15
RUN_LIMIT_S = 170  # a run must exit within 180 s; a certificate still running then is killed

# The claims that need 2-WL, which the S-ring path must list as not attempted.
TWO_WL_CLAIMS = ["grid_wl_rank", "rank_oracles_agree", "wl_rank"]

E2E_UNITS = {"certificate_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (span key, field of the aggregated span)
SPAN_METRICS = {
    "wl.wl2_s": ("wl.wl2", "self_s"),
    "wl.wl2_gamma_s": ("wl.wl2[gamma]", "self_s"),
    "wl.wl2_grid_s": ("wl.wl2[grid]", "self_s"),
    "wl.wl2_calls": ("wl.wl2", "calls"),
    "wl.wl2_peak_mb": ("wl.wl2", "peak_mb"),
    "wl.verify_coherence_s": ("wl.verify_coherence", "self_s"),
    "wl.verify_coherence_peak_mb": ("wl.verify_coherence", "peak_mb"),
    "wl.wl1_distinguishes_s": ("wl.wl1_distinguishes", "self_s"),
    "sring.wl_closure_s": ("sring.wl_closure", "self_s"),
    "sring.wl_closure_calls": ("sring.wl_closure", "calls"),
    "sring.closure_rank": ("sring.wl_closure", "count"),
    "sring.is_sring_s": ("sring.is_sring", "self_s"),
    "sring.closure_trace_s": ("sring.closure_trace", "self_s"),
    "sring.detect_wreath_s": ("sring.detect_wreath", "self_s"),
    "sring.wreath_decompositions": ("sring.detect_wreath", "count"),
    "graphs.cayley_graph_s": ("graphs.cayley_graph", "self_s"),
    "graphs.grid_graph_s": ("graphs.grid_graph", "self_s"),
    "graphs.deza_parameters_s": ("graphs.deza_parameters", "self_s"),
    "graphs.diameter_s": ("graphs.diameter", "self_s"),
    "graphs.diameter_calls": ("graphs.diameter", "calls"),
    "graphs.ddg_check_s": ("graphs.ddg_check", "self_s"),
    "spectrum.integral_spectrum_s": ("spectrum.integral_spectrum", "self_s"),
    "spectrum.eigenvalues_certified": ("spectrum.integral_spectrum", "count"),
    "group.family_group_s": ("group.family_group", "self_s"),
    "groupring.verify_square_identity_s": ("groupring.verify_square_identity", "self_s"),
    "groupring.multiply_calls": ("groupring.multiply", "calls"),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return (list(SPAN_METRICS) + [f"{layer}.self_s" for layer in LAYERS]
            + ["outside_s", "traced_certificate_s", "trace_overhead_s"])


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


# ---------------------------------------------------------------- processes

class Child(NamedTuple):
    """Outcome of one child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: list[str], env: dict, cwd: Path, log: Path, deadline: float) -> Child:
    """Spawn cmd and wait for it, killing it at the monotonic deadline."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(fd)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)


def certificate_cmd(kind: str, k: int, report: Path, spans: Path | None = None) -> list[str]:
    if kind == "verify":
        args = ["verify", "--k", str(k), "--json", str(report)]
        entry = ["-m", "dezawl"]
    else:
        args = ["--k", str(k), "--out", str(report)]
        entry = [str(HERE / "sring_path.py")]
    if spans is None:
        return [sys.executable] + entry + args
    entry = "dezawl" if kind == "verify" else "sring_path"
    return [sys.executable, str(HERE / "spans.py"), str(spans), entry] + args


# ------------------------------------------------------------------- checks

def closed_form_failures(kind: str, k: int, report: dict) -> list[str]:
    """Claims of the report that differ from the paper's closed forms."""
    n = 8 * k
    rank = 8 * k if k % 2 else 4 * k + 4
    eigenvalues = {2 * (k + 1), 2 * (k - 1), -2 * (k - 1), 2, -2}
    try:
        if kind == "verify":
            # A failed check leaves other keys in these objects (not_deza, failure).
            d, g = report["deza"], report["ddg"]
            deza = [d.get(key) for key in ("n", "k", "beta", "alpha", "strictly")]
            ddg = [g.get(key) for key in ("n", "k", "alpha", "beta", "m", "l")]
            ranks = [report["wl_rank_graph"], report["wl_rank_sring"]]
            pairs = report["spectrum"].get("pairs", [])
            wreath = report["wreath"]
        else:
            deza, ddg, pairs, wreath = (report["deza"], report["ddg"], report["spectrum"],
                                        report["wreath"])
            ranks = [report["closure_rank"]]
        claims = report["claims"]
        failures = []
        if deza != [n, 2 * (k + 1), 2 * (k - 1), 2, True]:
            failures.append(f"deza {deza}")
        if ranks != [rank] * len(ranks):
            failures.append(f"ranks {ranks}, expected {rank}")
        if ddg != [n, 2 * (k + 1), 2 * (k - 1), 2, 4, 2 * k]:
            failures.append(f"ddg {ddg}")
        if {lam for lam, _ in pairs} != eigenvalues or sum(m for _, m in pairs) != n:
            failures.append(f"spectrum {pairs}")
        expected_wreath = (k, 4 * k) if k % 2 == 0 else None
        if (wreath and (wreath["lower_order"], wreath["upper_order"])) != expected_wreath:
            failures.append(f"wreath {wreath}")
        if not claims or not all(v is True for v in claims.values()):
            failures.append(f"claims {claims}")
        if report["verdict"] != "pass":
            failures.append(f"verdict {report['verdict']}")
        if kind == "sring_path":
            skipped = report["not_attempted"]
            if sorted(skipped) != TWO_WL_CLAIMS or set(skipped) & set(claims):
                failures.append(f"not attempted {skipped}")
        return failures
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report lacks a claim: {exc!r}"]


def check_certificate(kind: str, k: int, code: int, data: bytes, golden: dict) -> list[str]:
    """Reasons the certificate failed; empty when it passed."""
    failures = [] if code == 0 else [f"exit code {code}"]
    if hashlib.sha256(data).hexdigest() != golden["sha256"]:
        failures.append("report bytes differ from the seed's")
    try:
        report = json.loads(data)
    except ValueError:
        return failures + ["report is not JSON"]
    if not isinstance(report, dict):
        return failures + ["report is not a JSON object"]
    claims = report.get("claims")
    if kind == "sring_path" and (not isinstance(claims, dict)
                                 or [list(c) for c in claims.items()] != golden["claims"]):
        failures.append("claim tuple differs from the seed's")
    return failures + closed_form_failures(kind, k, report)


# ------------------------------------------------------------------- spans

def aggregate_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name, and per name[tag]: calls, self and total seconds,
    tracemalloc peak and the last result count. Self time is a span's
    duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, _, parent, start, end, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_mb": 0.0, "count": 0})
    for (name, tag, _, start, end, peak, count), cov in zip(spans, covered):
        for key in [name] + ([f"{name}[{tag}]"] if tag else []):
            row = table[key]
            row["calls"] += 1
            row["self_s"] += end - start - cov
            row["total_s"] += end - start
            if peak is not None:
                row["peak_mb"] = max(row["peak_mb"], peak / 2**20)
            if count is not None:
                row["count"] = count
    return dict(table)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced certificate that took wall_s."""
    table = aggregate_spans(spans)
    absent = {"calls": 0, "self_s": 0.0, "peak_mb": 0.0, "count": 0}
    metrics = {m: table.get(key, absent)[field] for m, (key, field) in SPAN_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            row["self_s"] for key, row in table.items()
            if "[" not in key and key.split(".")[0] == layer)
    root = spans[0]
    metrics["outside_s"] = wall_s - (root[4] - root[3])
    metrics["traced_certificate_s"] = wall_s
    return metrics


# ------------------------------------------------------------------ summary

def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest of the usual percentiles with at
    least ten samples above it (None below 20 samples)."""
    n = len(samples)
    ordered = sorted(samples)
    high = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            high = [p, ordered[math.ceil(p / 100 * n) - 1]]
            break
    return {"median": statistics.median(samples), "n": n, "high_percentile": high,
            "samples": samples}


def source_sha256() -> str:
    """Digest of the program's source files, which identifies the code also
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def probe(env: dict, cwd: Path) -> dict:
    """Import dezawl once in a fresh interpreter (this also compiles its
    bytecode before any timing) and report where from and with what."""
    code = ("import json, sys, dezawl, numpy; print(json.dumps("
            "{'dezawl': dezawl.__file__, 'python': sys.version.split()[0],"
            " 'numpy': numpy.__version__}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import dezawl: {out.stderr.strip()}")
    return json.loads(out.stdout)


# --------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dezawl certificate benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--k", type=int, help="override the workload's k")
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kind, default_k = WORKLOADS[args.workload]
    k = args.k if args.k is not None else default_k
    if not (ROOT / "src" / "dezawl" / "__init__.py").is_file():
        print(f"error: no src/dezawl under {ROOT}; run from a dezawl checkout",
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[kind].get(str(k))
    if golden is None:
        print(f"error: golden.json has no {kind} entry for k={k}", file=sys.stderr)
        return 2

    env = child_env()
    loadavg = os.getloadavg()
    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        try:
            versions = probe(env, work)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not Path(versions["dezawl"]).resolve().is_relative_to(ROOT / "src"):
            print(f"error: dezawl imported from {versions['dezawl']}, not {ROOT / 'src'}",
                  file=sys.stderr)
            return 2

        samples: dict[str, list] = defaultdict(list)
        failures: list[str] = []
        attempted = 0
        traced_runs: list[dict] = []
        last_spans: list[list] = []

        def certificate(traced: bool) -> Child:
            nonlocal attempted
            report = work / "report.json"
            spans = work / "spans.json" if traced else None
            report.unlink(missing_ok=True)
            if spans:
                spans.unlink(missing_ok=True)
            child = run_child(certificate_cmd(kind, k, report, spans), env, work,
                              work / "log.txt", deadline)
            data = report.read_bytes() if report.exists() else b""
            attempted += 1
            reasons = check_certificate(kind, k, child.code, data, golden)
            if reasons:
                log = (work / "log.txt").read_text(encoding="utf-8", errors="replace")
                reasons.append("log ends " + repr(log[-300:]))
                failures.append(f"certificate {attempted}: " + "; ".join(reasons))
            return child

        if args.trace == 0:
            for _ in range(SETUP_SAMPLES):
                samples["setup_s"].append(run_child(
                    [sys.executable, "-c", "import dezawl"], env, work, work / "log.txt",
                    deadline).wall_s)
        t0 = time.monotonic()
        while attempted == 0 or time.monotonic() - t0 < args.seconds:
            child = certificate(traced=False)
            samples["certificate_s"].append(child.wall_s)
            samples["cpu_s"].append(child.cpu_s)
            samples["peak_rss_mb"].append(child.rss_mb)
            if args.trace == 1:
                child = certificate(traced=True)
                spans_path = work / "spans.json"
                if spans_path.exists():
                    last_spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                    traced_runs.append(layer_metrics(last_spans, child.wall_s))
            if time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    if args.trace == 0:
        metrics = {m: statistics.median(samples[m]) for m in E2E_UNITS}
    else:
        metrics = {m: statistics.median(run[m] for run in traced_runs) if traced_runs else 0.0
                   for m in per_layer_names() if m != "trace_overhead_s"}
        metrics["trace_overhead_s"] = (metrics["traced_certificate_s"]
                                       - statistics.median(samples["certificate_s"]))
    details = {
        "workload": args.workload, "k": k, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": {
            "git_sha": git_sha(), "src_sha256": source_sha256(),
            "python": versions["python"], "numpy": versions["numpy"],
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": BLAS_ENV,
            "loadavg_start": loadavg,
        },
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "summary": {m: summarize(v) for m, v in samples.items()},
        "traced_runs": traced_runs,
        "spans": aggregate_spans(last_spans) if last_spans else {},
        "elapsed_s": time.monotonic() - start,
    }
    print(json.dumps({"details": details}))
    units = E2E_UNITS if args.trace == 0 else {m: unit_of(m) for m in metrics}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
