"""Certificate of the family graph at k without 2-WL: the S-ring path.

Calls the public functions of dezawl in the order of
dezawl.verify.verify_family and checks every claim that does not need a
2-WL refinement. The claims that do (wl_rank, rank_oracles_agree and the
grid's 2-WL rank) are listed as not attempted, never as passed. The closure
rank takes the place of the 2-WL rank: it must equal the paper's 8k or
4k + 4.

Functions are looked up on the dezawl package at call time, so the span
recorder in spans.py sees every call.

    PYTHONPATH=src python3 perfbench/sring_path.py --k 48 --out claims48.json

Exit code 0 when every attempted claim passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import dezawl
import dezawl.verify

NOT_ATTEMPTED = ["grid_wl_rank", "rank_oracles_agree", "wl_rank"]


def certify(k: int) -> dict:
    """Run the S-ring path at k and return its deterministic result."""
    g = dezawl.family_group(k)
    s = dezawl.connection_set(g, k)
    gamma = dezawl.cayley_graph(g, s)
    n = g.order

    deza = dezawl.deza_parameters(gamma)
    square = dezawl.verify_square_identity(g, k)
    closure = dezawl.wl_closure(g, [s])
    sring_ok = bool(dezawl.is_sring(closure))

    wreaths = dezawl.detect_wreath(closure)
    canonical = [
        w for w in wreaths
        if w.section.lower.order == k and w.section.upper.order == 4 * k
        and w.rank_quotient == 8 and w.rank_section == 4
    ]
    wreath_ok = bool(canonical) if k % 2 == 0 else not wreaths

    partition = dezawl.canonical_ddg_partition(g, k)
    ddg = dezawl.ddg_check(gamma, partition)

    spectrum = dezawl.integral_spectrum(gamma)
    spectrum_ok = False
    pairs = []
    if isinstance(spectrum, dezawl.IntegralSpectrum):
        pairs = [list(p) for p in spectrum.pairs]
        spectrum_ok = (
            spectrum.eigenvalues() == dezawl.expected_eigenvalues(k)
            and sum(lam * m for lam, m in spectrum.pairs) == 0
            and sum(lam * lam * m for lam, m in spectrum.pairs) == n * 2 * (k + 1)
        )

    grid = dezawl.grid_graph(4, 2 * k)
    grid_deza = dezawl.deza_parameters(grid)
    same_parameters = (
        isinstance(deza, dezawl.DezaParameters)
        and isinstance(grid_deza, dezawl.DezaParameters)
        and deza.as_tuple() == grid_deza.as_tuple()
    )
    wl1_distinguishes = dezawl.wl1_distinguishes(gamma, grid)

    trace = dezawl.closure_trace(g, k)

    is_deza = isinstance(deza, dezawl.DezaParameters)
    is_ddg = isinstance(ddg, dezawl.DDGParameters)
    claims = {
        "deza_parameters": (
            is_deza and deza.as_tuple() == (8 * k, 2 * (k + 1), 2 * (k - 1), 2)
            and deza.strictly
        ),
        "square_identity": square.holds,
        "sring_axioms": sring_ok,
        "closure_rank": closure.rank == dezawl.verify.expected_wl_rank(k),
        "wreath_structure": wreath_ok,
        "ddg": is_ddg and ddg.as_tuple() == (8 * k, 2 * (k + 1), 2 * (k - 1), 2, 4, 2 * k),
        "integral_spectrum": spectrum_ok,
        "grid_parameters": same_parameters,
        "grid_wl1_indistinguishable": not wl1_distinguishes,
        "closure_trace": trace.all_hold,
    }
    return {
        "k": k,
        "group_order": n,
        "deza": list(deza.as_tuple()) + [deza.strictly] if is_deza else None,
        "closure_rank": closure.rank,
        "wreath": canonical[0].summary() if canonical else None,
        "ddg": list(ddg.as_tuple()) if is_ddg else None,
        "spectrum": pairs,
        "grid": {"same_parameters": same_parameters,
                 "wl1_distinguishes": wl1_distinguishes},
        "closure_trace": trace.to_dict(),
        "claims": dict(sorted(claims.items())),
        "not_attempted": NOT_ATTEMPTED,
        "verdict": "pass" if all(claims.values()) else "fail",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--out", required=True, help="path of the result JSON")
    args = parser.parse_args(argv)
    result = certify(args.k)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if result["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
