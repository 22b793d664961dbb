"""Command-line interface.

Commands: construct, verify, wl-rank, sweep. Exit codes are stable for
scripting: 0 success, 1 verification failure, 2 usage, parse or range error
or an allocation that failed for lack of memory.
Machine-readable outputs (files and stdout) are byte-identical across
re-runs; wall-clock timings and work counters go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .graphs import cayley_graph, load_graph, save_graph
from .group import family_group
from .groupring import connection_set
from .verify import verify_family
from .wl import wl_rank

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _print_summary(d: dict) -> None:
    """The human-readable summary of a certificate."""
    print(f"k={d['k']}  n={d['group_order']}")
    deza = d["deza"]
    if "n" in deza:
        flags = "strictly Deza" if deza["strictly"] else "not strictly Deza"
        print(
            f"  deza parameters     ({deza['n']}, {deza['k']}, {deza['beta']},"
            f" {deza['alpha']})  {flags}"
        )
    else:
        print(f"  deza parameters     NOT DEZA: {deza['not_deza']}")
    print(f"  square identity     {d['square_identity_holds']}")
    print(
        f"  wl rank             graph={d['wl_rank_graph']}"
        f" sring={d['wl_rank_sring']} expected={d['expected_wl_rank']}"
    )
    w = d["wreath"]
    if w is not None:
        print(
            f"  wreath structure    |L|={w['lower_order']} |U|={w['upper_order']}"
            f" ranks {w['rank_u']}+{w['rank_quotient']}-{w['rank_section']}"
        )
    ddg = d["ddg"]
    if "n" in ddg:
        print(
            f"  divisible design    ({ddg['n']}, {ddg['k']}, {ddg['alpha']},"
            f" {ddg['beta']}, {ddg['m']}, {ddg['l']})"
        )
    else:
        print(f"  divisible design    FAILED: {ddg['failure']}")
    spectrum = d["spectrum"]
    if spectrum["integral"]:
        pairs = ", ".join(f"{lam}^{m}" for lam, m in spectrum["pairs"])
        print(f"  spectrum            integral: {pairs}")
    else:
        print(
            "  spectrum            NOT CERTIFIED INTEGRAL, residual dimension"
            f" {spectrum['residual_dimension']}"
        )
    g = d["grid_comparison"]
    print(
        f"  grid comparison     same parameters={g['same_parameters']}"
        f" grid rank={g['grid_wl_rank']} 1-WL distinguishes={g['wl1_distinguishes']}"
    )
    print(f"  closure trace       {'ok' if d['closure_trace']['all_hold'] else 'FAILED'}")
    for name, ok in sorted(d["claims"].items()):
        print(f"  claim {name:<24s} {'pass' if ok else 'FAIL'}")
    print(f"verdict: {d['verdict']}")


def cmd_construct(args: argparse.Namespace) -> int:
    g = family_group(args.k)
    graph = cayley_graph(g, connection_set(g, args.k))
    payload = save_graph(graph, args.format)
    if args.out == "-":
        sys.stdout.write(payload)
        return EXIT_OK
    try:
        Path(args.out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    drop = tuple(args.drop_edge) if args.drop_edge else None
    report = verify_family(args.k, drop_edge=drop)
    json_path = Path(args.json) if args.json else Path(f"verification_k{args.k}.json")
    try:
        json_path.write_text(
            json.dumps(report.certificate, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        return _fail(f"cannot write {json_path}: {exc}")
    _print_summary(report.certificate)
    for phase, seconds in report.timings.items():
        print(f"timing {phase}: {seconds:.3f}s", file=sys.stderr)
    for name, counters in report.work.items():
        fields = " ".join(f"{key}={value}" for key, value in counters.items())
        print(f"work {name}: {fields}", file=sys.stderr)
    print(f"report written to {json_path}", file=sys.stderr)
    if report.verdict != "pass":
        print(
            "verification failed: " + ", ".join(report.failed_claims()),
            file=sys.stderr,
        )
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_wl_rank(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
        graph = load_graph(text)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read graph: {exc}")
    print(wl_rank(graph))
    return EXIT_OK


SWEEP_COLUMNS = [
    "k", "n", "s_size", "deza_n", "deza_k", "deza_beta", "deza_alpha",
    "strictly", "wl_rank_graph", "wl_rank_sring", "expected_wl_rank",
    "spectrum", "ddg", "verdict",
]


def _sweep_row(d: dict) -> dict:
    """The CSV row of a certificate."""
    deza = d["deza"]
    spectrum = (
        " ".join(str(lam) for lam, _ in d["spectrum"]["pairs"])
        if d["spectrum"]["integral"]
        else "non-integral"
    )
    ddg = d["ddg"]
    ddg_text = (
        f"({ddg['n']},{ddg['k']},{ddg['alpha']},{ddg['beta']},{ddg['m']},{ddg['l']})"
        if "n" in ddg
        else "failed"
    )
    return {
        "k": d["k"],
        "n": d["group_order"],
        "s_size": 2 * (d["k"] + 1),
        "deza_n": deza.get("n", ""),
        "deza_k": deza.get("k", ""),
        "deza_beta": deza.get("beta", ""),
        "deza_alpha": deza.get("alpha", ""),
        "strictly": deza.get("strictly", False),
        "wl_rank_graph": d["wl_rank_graph"],
        "wl_rank_sring": d["wl_rank_sring"],
        "expected_wl_rank": d["expected_wl_rank"],
        "spectrum": spectrum,
        "ddg": ddg_text,
        "verdict": d["verdict"],
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.start < 3:
        return _fail("sweep range must start at k >= 3")
    if args.end < args.start:
        return _fail("empty sweep range")
    rows = []
    for k in range(args.start, args.end + 1):
        t0 = time.perf_counter()
        rows.append(_sweep_row(verify_family(k).certificate))
        print(f"timing k={k}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in SWEEP_COLUMNS))
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        try:
            Path(args.csv).write_text(csv_text, encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {args.csv}: {exc}")
    sys.stdout.write(csv_text)
    return EXIT_OK if all(row["verdict"] == "pass" for row in rows) else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dezawl",
        description=(
            "Construct strictly Deza Cayley graphs over D_2k x C2 x C2 and"
            " verify their parameters, WL-rank, wreath structure, divisible"
            " design property and integral spectrum."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write the family graph to a file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["edgelist", "dot", "json"], default="edgelist")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", help="report path (default verification_k{K}.json)")
    p.add_argument(
        "--drop-edge",
        nargs=2,
        type=int,
        metavar=("U", "V"),
        help="debug: remove one edge before verification to force a failure",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wl-rank", help="WL-rank of a graph file (edge list or JSON)")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_wl_rank)

    p = sub.add_parser("sweep", help="verify a range of k and emit a CSV table")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--csv", help="also write the table to this path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        return _fail(f"not enough memory: {exc}")
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
