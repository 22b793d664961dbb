"""Full verification pipeline for one family graph: every claim checked
and aggregated into one certificate, the deterministic JSON payload that
`dezawl verify` writes, with a per-claim verdict. Phase timings and work
counters differ between runs and are kept apart from it."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple, Optional

from .graphs import (
    DDGFailure,
    DDGParameters,
    DezaParameters,
    NotDezaVerdict,
    canonical_ddg_partition,
    cayley_graph,
    ddg_check,
    deza_parameters,
    grid_graph,
)
from .group import family_group
from .groupring import connection_set, verify_square_identity
from .spectrum import (
    IntegralSpectrum,
    NonIntegralVerdict,
    expected_eigenvalues,
    integral_spectrum,
)
from .sring import closure_trace, detect_wreath, is_sring, wl_closure
from .wl import CoherentConfiguration, wl1_distinguishes, wl2

SCHEMA_VERSION = 1


def expected_wl_rank(k: int) -> int:
    """8k for odd k, 4k + 4 for even k."""
    return 8 * k if k % 2 else 4 * k + 4


class VerificationReport(NamedTuple):
    """One run of verify_family. certificate is the deterministic JSON
    payload of schemas/verification_report.schema.json, plain dicts, lists,
    ints, bools and strings, so re-runs are byte-identical. timings (wall
    seconds per phase) and work (counters per 2-WL run) are kept apart
    from it."""

    certificate: dict
    timings: dict[str, float]
    work: dict[str, dict]

    @property
    def verdict(self) -> str:
        return self.certificate["verdict"]

    def failed_claims(self) -> list[str]:
        return [name for name, ok in self.certificate["claims"].items() if not ok]


def _deza_entry(deza: DezaParameters | NotDezaVerdict) -> dict:
    if isinstance(deza, DezaParameters):
        return {
            "n": deza.n,
            "k": deza.k,
            "beta": deza.beta,
            "alpha": deza.alpha,
            "strictly": deza.strictly,
            "strongly_regular": deza.strongly_regular,
        }
    return {"not_deza": deza.reason, "witness": list(deza.witness or [])}


def _ddg_entry(ddg: DDGParameters | DDGFailure) -> dict:
    if isinstance(ddg, DDGParameters):
        return {
            "n": ddg.n, "k": ddg.k,
            "alpha": ddg.alpha, "beta": ddg.beta,
            "m": ddg.m, "l": ddg.l,
        }
    return {"failure": ddg.reason, "witness": list(ddg.witness or [])}


def _spectrum_entry(spectrum: IntegralSpectrum | NonIntegralVerdict) -> dict:
    if isinstance(spectrum, IntegralSpectrum):
        return {"integral": True, "pairs": [[lam, m] for lam, m in spectrum.pairs]}
    return {
        "integral": False,
        "certified": [[lam, m] for lam, m in spectrum.certified],
        "residual_dimension": spectrum.residual_dimension,
    }


def _wl2_work(conf: CoherentConfiguration) -> dict:
    return {"rounds": conf.rounds, "rejections": conf.rejections,
            "recheck_rows": conf.recheck_rows}


@contextmanager
def _phase(timings: dict[str, float], name: str):
    """Record the wall time of the enclosed block as timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def verify_family(k: int, drop_edge: Optional[tuple[int, int]] = None) -> VerificationReport:
    """Run every check for the family graph at parameter k.

    drop_edge removes one undirected edge from the constructed graph before
    the graph-side checks run; it exists to demonstrate that the pipeline
    detects a corrupted input and is not used in normal operation.
    """
    timings: dict[str, float] = {}
    work: dict[str, dict] = {}
    g = family_group(k)
    s = connection_set(g, k)
    gamma = cayley_graph(g, s)
    if drop_edge is not None:
        gamma = gamma.without_edge(*drop_edge)

    n = g.order
    expected_deza = (8 * k, 2 * (k + 1), 2 * (k - 1), 2)
    expect_rank = expected_wl_rank(k)

    with _phase(timings, "deza"):
        deza = deza_parameters(gamma)
    with _phase(timings, "square_identity"):
        square = verify_square_identity(g, k)

    with _phase(timings, "closure"):
        closure = wl_closure(g, [s])
    with _phase(timings, "sring_axioms"):
        sring_ok = bool(is_sring(closure))

    # Gamma and the grid carry their translations and shifts, which shorten
    # the coherence recheck and the spectrum certificate to one row and one
    # column; under drop_edge Gamma carries none, and every row and column
    # is taken.
    # Each 2-WL coloring (4 n^2 bytes) is dropped once its rank is read:
    # Gamma's would otherwise sit through the grid's 2-WL, which sets the
    # peak memory of a large run.
    with _phase(timings, "wl2"):
        conf = wl2(gamma)
    rank_graph = conf.rank
    work["wl2_gamma"] = _wl2_work(conf)
    del conf

    with _phase(timings, "wreath"):
        wreaths = detect_wreath(closure)
        canonical = [
            w for w in wreaths
            if w.section.lower.order == k and w.section.upper.order == 4 * k
            and w.rank_quotient == 8 and w.rank_section == 4
        ]
    wreath_summary = canonical[0].summary() if canonical else None
    wreath_ok = bool(canonical) if k % 2 == 0 else not wreaths

    with _phase(timings, "ddg"):
        partition = canonical_ddg_partition(g, k)
        ddg = ddg_check(gamma, partition)
    expected_ddg = (8 * k, 2 * (k + 1), 2 * (k - 1), 2, 4, 2 * k)

    with _phase(timings, "spectrum"):
        spectrum = integral_spectrum(gamma)
    spectrum_ok = False
    if isinstance(spectrum, IntegralSpectrum):
        trace_sum = sum(lam * m for lam, m in spectrum.pairs)
        square_sum = sum(lam * lam * m for lam, m in spectrum.pairs)
        spectrum_ok = (
            spectrum.eigenvalues() == expected_eigenvalues(k)
            and trace_sum == 0
            and square_sum == n * 2 * (k + 1)
        )

    with _phase(timings, "grid"):
        grid = grid_graph(4, 2 * k)
        grid_deza = deza_parameters(grid)
        grid_conf = wl2(grid)
        indistinguishable_1wl = not wl1_distinguishes(gamma, grid)
    same_parameters = (
        isinstance(deza, DezaParameters)
        and isinstance(grid_deza, DezaParameters)
        and deza.as_tuple() == grid_deza.as_tuple()
    )
    grid_rank = grid_conf.rank
    work["wl2_grid"] = _wl2_work(grid_conf)
    del grid_conf
    grid_comparison = {
        "same_parameters": same_parameters,
        "grid_wl_rank": grid_rank,
        "wl1_distinguishes": not indistinguishable_1wl,
    }

    with _phase(timings, "closure_trace"):
        trace = closure_trace(g, k)

    claims = {
        "deza_parameters": (
            isinstance(deza, DezaParameters)
            and deza.as_tuple() == expected_deza
            and deza.strictly
        ),
        "square_identity": square.holds,
        "sring_axioms": sring_ok,
        "wl_rank": rank_graph == expect_rank,
        "rank_oracles_agree": rank_graph == closure.rank,
        "wreath_structure": wreath_ok,
        "ddg": isinstance(ddg, DDGParameters) and ddg.as_tuple() == expected_ddg,
        "integral_spectrum": spectrum_ok,
        "grid_comparison": (
            same_parameters
            and grid_rank == 4
            and indistinguishable_1wl
            and rank_graph != grid_rank
        ),
        "closure_trace": trace.all_hold,
    }

    certificate = {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "group_order": n,
        "deza": _deza_entry(deza),
        "square_identity_holds": square.holds,
        "wl_rank_graph": rank_graph,
        "wl_rank_sring": closure.rank,
        "expected_wl_rank": expect_rank,
        "wreath": wreath_summary,
        "ddg": _ddg_entry(ddg),
        "spectrum": _spectrum_entry(spectrum),
        "grid_comparison": grid_comparison,
        "closure_trace": trace.to_dict(),
        "claims": claims,
        "verdict": "pass" if all(claims.values()) else "fail",
    }
    return VerificationReport(certificate, timings, work)
