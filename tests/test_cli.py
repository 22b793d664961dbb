import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from dezawl.cli import main
from dezawl.graphs import graph_from_json, load_graph, write_edgelist

SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "dezawl"
    / "schemas"
    / "verification_report.schema.json"
)


def _schema():
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def test_construct_edgelist_header(tmp_path, capsys):
    out = tmp_path / "g3.txt"
    assert main(["construct", "--k", "3", "--format", "edgelist", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "24 96"
    assert len(lines) == 97


def test_construct_json_round_trips(tmp_path):
    out = tmp_path / "g3.json"
    assert main(["construct", "--k", "3", "--format", "json", "--out", str(out)]) == 0
    text = out.read_text()
    graph = graph_from_json(text)
    from dezawl.graphs import graph_to_json

    assert graph_to_json(graph) == text


def test_construct_rejects_small_k(tmp_path, capsys):
    assert main(["construct", "--k", "2", "--out", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_rejects_unwritable_path(capsys):
    code = main(["construct", "--k", "3", "--out", "/nonexistent-dir/graph.txt"])
    assert code == 2


def test_verify_k5_passes_and_report_validates(tmp_path, capsys):
    report_path = tmp_path / "r5.json"
    assert main(["verify", "--k", "5", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, _schema())
    assert report["wl_rank_graph"] == 40
    assert report["wl_rank_sring"] == 40
    assert report["verdict"] == "pass"


def test_verify_times_every_phase_on_stderr_only(tmp_path, capsys):
    report_path = tmp_path / "r3.json"
    assert main(["verify", "--k", "3", "--json", str(report_path)]) == 0
    captured = capsys.readouterr()
    phases = ["deza", "square_identity", "closure", "sring_axioms", "wl2", "wreath",
              "ddg", "spectrum", "grid", "closure_trace"]
    timed = [line.split(":")[0][len("timing "):] for line in captured.err.splitlines()
             if line.startswith("timing ")]
    assert timed == phases
    assert "timing" not in captured.out
    assert "timing" not in report_path.read_text()


@pytest.mark.parametrize("k,drop", [(3, None), (4, None), (3, ["0", "2"])])
def test_verify_prints_wl2_work_on_stderr_only(tmp_path, capsys, k, drop):
    """One work line per 2-WL run goes to stderr; the report bytes are the
    pinned ones of perfbench/golden.json for the family graphs."""
    import hashlib
    import re

    report_path = tmp_path / "r.json"
    args = ["verify", "--k", str(k), "--json", str(report_path)]
    code = main(args + (["--drop-edge", *drop] if drop else []))
    captured = capsys.readouterr()
    work = [line for line in captured.err.splitlines() if line.startswith("work ")]
    # the grid's shifts preserve its coloring, so one row is compared; the
    # family graph's translations do only while no edge is dropped
    gamma_rows = 1 if drop is None else 8 * k
    assert len(work) == 2
    assert re.fullmatch(rf"work wl2_gamma: path=hashed rounds=\d+ recheck_rows={gamma_rows}",
                        work[0])
    assert work[1] == "work wl2_grid: path=hashed rounds=2 recheck_rows=1"
    assert "work" not in captured.out
    text = report_path.read_text()
    assert "work" not in text and "recheck" not in text
    if drop is None:
        assert code == 0
        golden = json.loads((SCHEMA_PATH.parents[3] / "perfbench" / "golden.json").read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == golden["verify"][str(k)]["sha256"]
    else:
        assert code == 1


def test_verify_k6_reports_wreath(tmp_path):
    report_path = tmp_path / "r6.json"
    assert main(["verify", "--k", "6", "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, _schema())
    assert report["wl_rank_graph"] == 28
    assert report["wreath"] == {
        "lower_order": 6,
        "upper_order": 24,
        "rank_u": 24,
        "rank_quotient": 8,
        "rank_section": 4,
    }


def test_verify_with_dropped_edge_fails_deza(tmp_path, capsys):
    report_path = tmp_path / "bad.json"
    code = main(
        ["verify", "--k", "3", "--json", str(report_path), "--drop-edge", "0", "2"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "deza_parameters" in err
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, _schema())
    assert report["verdict"] == "fail"
    assert report["claims"]["deza_parameters"] is False


def test_wl_rank_on_grid_file(tmp_path, capsys):
    from dezawl import grid_graph

    path = tmp_path / "grid.txt"
    path.write_text(write_edgelist(grid_graph(4, 6)))
    assert main(["wl-rank", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_wl_rank_on_complete_graph_file(tmp_path, capsys):
    from dezawl import Graph

    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    path = tmp_path / "k5.txt"
    path.write_text(write_edgelist(k5))
    assert main(["wl-rank", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_wl_rank_on_family_k4_file(tmp_path, capsys):
    out = tmp_path / "g4.json"
    assert main(["construct", "--k", "4", "--format", "json", "--out", str(out)]) == 0
    assert main(["wl-rank", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_wl_rank_parse_failure(tmp_path, capsys):
    path = tmp_path / "garbage.txt"
    path.write_text("this is not a graph\n")
    assert main(["wl-rank", "--in", str(path)]) == 2


def test_sweep_range_ranks(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--from", "3", "--to", "8", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    rank_col = header.index("wl_rank_graph")
    ranks = [int(line.split(",")[rank_col]) for line in lines[1:]]
    assert ranks == [24, 20, 40, 28, 56, 36]
    assert capsys.readouterr().out.splitlines() == lines


def test_sweep_single_row(capsys):
    assert main(["sweep", "--from", "3", "--to", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2


def test_sweep_empty_range_rejected(capsys):
    assert main(["sweep", "--from", "5", "--to", "4"]) == 2
    assert main(["sweep", "--from", "2", "--to", "4"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_outputs_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--k", "4", "--json", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert main(["verify", "--k", "4", "--json", str(b)]) == 0
    out_b = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert out_a == out_b


def test_construct_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["construct", "--k", "4", "--out", str(a)])
    main(["construct", "--k", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dezawl", "construct", "--k", "3", "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "24 96"


def test_loaded_graph_matches_constructed(tmp_path):
    out = tmp_path / "g3.txt"
    main(["construct", "--k", "3", "--out", str(out)])
    graph = load_graph(out.read_text())
    assert graph.n == 24
    assert graph.edge_count() == 96


@pytest.mark.parametrize("u,v", [(100, 0), (-1, 0), (0, -23)])
def test_verify_rejects_out_of_range_drop_edge(u, v, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main(["verify", "--k", "3", "--json", str(report_path),
                 "--drop-edge", str(u), str(v)])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("text", [
    '{"n": null, "edges": []}',
    '{"n": null, "directed": false, "edges": []}',
    '{"n": 3, "directed": false, "edges": 5}',
    '{"n": 3, "directed": false, "edges": [], "labels": 5}',
    '{"n": 3, "directed": false, "edges": [[0, null]]}',
    '{"n": 3, "directed": false, "edges": [[0, 1, 2]]}',
    '{"n": 3, "directed": "no", "edges": []}',
    '{"n": 3, "directed": false, "edges": [], "labels": [1, 2, 3]}',
    '{"n": 3, "directed": false}',
])
def test_wl_rank_rejects_json_of_wrong_types(text, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["wl-rank", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read graph")


@pytest.mark.parametrize("text", [
    "3 2\n0 1\n1 0\n",
    "3 2\n0 1\n0 1\n",
    '{"n": 3, "directed": false, "edges": [[0, 1], [1, 0], [0, 1]]}',
    '{"n": 3, "directed": true, "edges": [[0, 1], [0, 1]]}',
])
def test_wl_rank_rejects_duplicate_edges(text, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["wl-rank", "--in", str(path)]) == 2
    assert "duplicate edge" in capsys.readouterr().err


# Each size asks for one array larger than a 48-bit address space (256 TiB),
# so the allocation fails at once whatever the kernel's overcommit policy:
# a 2e7 x 2e7 boolean adjacency matrix (364 TiB), and the 8e6 x 8e6 int64
# multiplication table of the family group at k = 1e6 (466 TiB), built
# after four vectors of 64 MB.
@pytest.mark.parametrize("argv,text", [
    (["wl-rank"], "20000000 0\n"),
    (["wl-rank"], '{"n": 20000000, "directed": false, "edges": []}'),
    (["verify", "--k", "1000000"], None),
    (["construct", "--k", "1000000"], None),
])
def test_failed_allocation_exits_2(argv, text, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "big.txt").write_text(text)
        argv = argv + ["--in", "big.txt"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not enough memory: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == ([tmp_path / "big.txt"] if text else [])


# Inputs past a size bound raise ValueError deep in the pipeline; the CLI
# reports it as one error line with exit 2, never a traceback: 46341 vertices
# need pair colors past int32, and k = 10^18 an array past numpy's limit.
@pytest.mark.parametrize("argv,text", [
    (["wl-rank", "--in", "g.json"], '{"n": 46341, "directed": false, "edges": []}'),
    (["sweep", "--from", str(10**18), "--to", str(10**18)], None),
])
def test_value_error_exits_2_with_one_error_line(argv, text, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "g.json").write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# sha256 of the bytes each command writes, pinned where no other test pins
# them: the stdout summary, and the report's failure branches (not_deza,
# failure, certified/residual_dimension) from a graph with one edge dropped.
@pytest.mark.parametrize("argv,pins", [
    (["verify", "--k", "3", "--drop-edge", "0", "2", "--json", "out"], {
        "out": "4602a587c541dcb297167c6976c7f7f0338580327c36ad0c0ef255d2a5783878",
        "stdout": "2b55be02e1f5fc77b36f0e8afc28667acd6d162fe0c948e9277b41de8fc5bd9c",
    }),
    (["verify", "--k", "4", "--json", "out"], {
        "stdout": "047898ccda1971968150abf3f7f774bca2bd422de07775a84ba891f43f13dbcd",
    }),
    (["sweep", "--from", "3", "--to", "6", "--csv", "out"], {
        "out": "09b1b5a7db0b35418ac7a2dd50f6848f48d8df034de8d90caf216fd7ab7c9b45",
        "stdout": "09b1b5a7db0b35418ac7a2dd50f6848f48d8df034de8d90caf216fd7ab7c9b45",
    }),
])
def test_outputs_match_pinned_bytes(argv, pins, tmp_path, capsys, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    main(argv)
    written = {"out": (tmp_path / "out").read_bytes(),
               "stdout": capsys.readouterr().out.encode()}
    assert {name: hashlib.sha256(written[name]).hexdigest() for name in pins} == pins


@pytest.mark.parametrize("k,drop", [(3, None), (4, None), (3, (0, 2))])
def test_certificate_is_plain_json(k, drop):
    """json.dumps takes the certificate as it is, with no default= hook, and
    reads back equal: it holds no numpy scalar, tuple or dataclass."""
    from dezawl.verify import verify_family

    certificate = verify_family(k, drop_edge=drop).certificate
    assert json.loads(json.dumps(certificate)) == certificate
