"""Tests of the benchmark itself, at small k (3 and 4).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

import dezawl  # noqa: E402
import sring_path  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((run.HERE / "golden.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload,k", [("verify_odd", 3), ("verify_even", 4),
                                        ("sring_path_large", 4)])
def test_workload_runs_untraced(workload, k):
    result = result_line(bench("--workload", workload, "--k", str(k), "--seed", "1",
                               "--seconds", "0.1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,k,wl2_calls,wreaths", [
    ("verify_odd", 3, 2, 0), ("verify_even", 4, 2, 2), ("sring_path_large", 4, 0, 2)])
def test_workload_runs_traced(workload, k, wl2_calls, wreaths):
    out = bench("--workload", workload, "--k", str(k), "--seed", "1",
                "--seconds", "0.1", "--trace", "1")
    result = result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == run.per_layer_names()
    assert metrics["wl.wl2_calls"] == wl2_calls
    assert metrics["sring.wl_closure_calls"] == 2
    assert metrics["sring.closure_rank"] == (8 * k if k % 2 else 4 * k + 4)
    assert metrics["sring.wreath_decompositions"] == wreaths
    assert metrics["spectrum.eigenvalues_certified"] == 5
    # Layer self times plus the time outside the root span are the traced total.
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + metrics["outside_s"] == pytest.approx(metrics["traced_certificate_s"])
    details = json.loads(out.stdout.splitlines()[-2])["details"]
    assert details["environment"]["blas_threads"] == run.BLAS_ENV
    assert len(details["summary"]["certificate_s"]["samples"]) == 1


def test_self_times_sum_to_the_root_span(tmp_path):
    recorder = spans.Recorder()
    code = spans.traced_main(
        "dezawl", ["verify", "--k", "3", "--json", str(tmp_path / "r.json")], recorder)
    assert code == 0
    root = recorder.spans[0]
    assert root[0] == "cli.main" and root[2] == -1
    assert all(0 <= s[2] < i for i, s in enumerate(recorder.spans) if i)
    table = run.aggregate_spans(recorder.spans)
    self_total = sum(row["self_s"] for key, row in table.items() if "[" not in key)
    assert self_total == pytest.approx(root[4] - root[3], rel=1e-9)
    assert table["wl.wl2[gamma]"]["calls"] == table["wl.wl2[grid]"]["calls"] == 1
    assert table["wl.verify_coherence[grid]"]["calls"] == 1
    assert table["wl.wl2"]["peak_mb"] >= table["wl.verify_coherence"]["peak_mb"] > 0


def _namespaces() -> list[types.ModuleType]:
    return ([dezawl, sring_path]
            + [importlib.import_module(f"dezawl.{m}") for m in spans.LAYERS])


def test_recorder_restores_the_originals_after_an_error():
    before = [dict(vars(m)) for m in _namespaces()]
    with pytest.raises(SystemExit):
        spans.traced_main("dezawl", ["verify", "--k", "not-a-number"], spans.Recorder())
    with pytest.raises(ValueError):
        spans.traced_main("sring_path", ["--k", "2", "--out", "unused.json"],
                          spans.Recorder())
    after = [dict(vars(m)) for m in _namespaces()]
    assert all(b[name] is a[name] for b, a in zip(before, after) for name in b)


def _verify_k3(tmp_path, *extra: str) -> tuple[int, bytes]:
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    cmd = run.certificate_cmd("verify", 3, report) + list(extra)
    code = subprocess.run(cmd, env=run.child_env(), cwd=tmp_path, capture_output=True,
                          timeout=120).returncode
    return code, report.read_bytes()


def test_seed_report_passes_and_tampered_golden_fails(tmp_path):
    code, data = _verify_k3(tmp_path)
    golden = GOLDEN["verify"]["3"]
    assert run.check_certificate("verify", 3, code, data, golden) == []
    tampered = dict(golden, sha256="0" * 64)
    assert run.check_certificate("verify", 3, code, data, tampered) == [
        "report bytes differ from the seed's"]


def test_dropped_edge_fails_even_against_its_own_hash(tmp_path):
    g = dezawl.family_group(3)
    v = dezawl.cayley_graph(g, dezawl.connection_set(g, 3)).neighbors(0)[0]
    code, data = _verify_k3(tmp_path, "--drop-edge", "0", str(v))
    assert code == 1
    assert run.check_certificate("verify", 3, code, data, GOLDEN["verify"]["3"])
    own = {"sha256": hashlib.sha256(data).hexdigest()}
    reasons = run.check_certificate("verify", 3, code, data, own)
    assert "exit code 1" in reasons and any(r.startswith("deza") for r in reasons)


def test_closed_forms_catch_a_wrong_claim_the_hash_would_accept(tmp_path):
    report = json.loads(_verify_k3(tmp_path)[1])
    assert run.closed_form_failures("verify", 3, report) == []
    report["wl_rank_sring"] += 1
    assert run.closed_form_failures("verify", 3, report) == ["ranks [24, 25], expected 24"]


def test_sring_path_claims_and_not_attempted(tmp_path):
    out = tmp_path / "c.json"
    assert sring_path.main(["--k", "4", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert run.check_certificate("sring_path", 4, 0, data, GOLDEN["sring_path"]["4"]) == []
    result = json.loads(data)
    result["claims"]["wl_rank"] = True
    assert run.closed_form_failures("sring_path", 4, result)


def test_run_counts_a_report_against_a_tampered_golden_as_failed(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(run.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = json.loads(json.dumps(GOLDEN))
    golden["verify"]["3"]["sha256"] = "0" * 64
    (tmp_path / "perfbench" / "golden.json").write_text(json.dumps(golden))
    result = result_line(bench("--workload", "verify_odd", "--k", "3", "--seed", "0",
                               "--seconds", "0.1", "--trace", "0", cwd=tmp_path))
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "verify_odd", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
